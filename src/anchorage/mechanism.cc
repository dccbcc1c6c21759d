#include "anchorage/mechanism.h"

namespace alaska::anchorage
{

const char *
mechanismName(MechanismKind kind)
{
    switch (kind) {
    case MechanismKind::Stw: return "stw";
    case MechanismKind::Campaign: return "campaign";
    case MechanismKind::kCount: break;
    }
    return "unknown";
}

} // namespace alaska::anchorage
