#include "base/logging.h"

#include <cstdio>
#include <cstdlib>

namespace alaska
{

namespace
{

void
vreport(const char *prefix, const char *fmt, va_list ap)
{
    std::fprintf(stderr, "%s: ", prefix);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
}

} // anonymous namespace

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

} // namespace alaska
