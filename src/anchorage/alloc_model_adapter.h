/**
 * @file
 * Presents a full Alaska runtime + Anchorage service + controller as an
 * AllocModel, so the fragmentation harnesses (Figures 9, 10, 11) can
 * drive all four memory managers — glibc model, jemalloc+activedefrag,
 * Mesh, and Anchorage — through one interface. Allocation goes through
 * real halloc/hfree (real handle table, real barriers); the controller
 * runs off the harness's clock via maintain().
 */

#ifndef ALASKA_ANCHORAGE_ALLOC_MODEL_ADAPTER_H
#define ALASKA_ANCHORAGE_ALLOC_MODEL_ADAPTER_H

#include <cstdint>
#include <memory>

#include "alloc_sim/alloc_model.h"
#include "anchorage/anchorage_service.h"
#include "anchorage/control.h"
#include "core/runtime.h"
#include "sim/address_space.h"
#include "sim/clock.h"

namespace alaska::anchorage
{

/** Anchorage behind the AllocModel interface. */
class AnchorageAllocModel : public AllocModel
{
  public:
    /**
     * @param space real or phantom backing
     * @param clock drives the controller (virtual in harnesses)
     * @param control controller parameters (Figure 10 sweeps these)
     */
    AnchorageAllocModel(AddressSpace &space, const Clock &clock,
                        ControlParams control = {})
        : service_(space),
          runtime_(std::make_unique<Runtime>(
              RuntimeConfig{.tableCapacity = 1u << 26})),
          controller_(service_, clock, control)
    {
        runtime_->attachService(&service_);
        // Register the driving thread so halloc/hfree (including the
        // defrag-driven reallocation behind maintain()) run on the
        // magazine fast path instead of the shared free-list shards.
        registration_ = std::make_unique<ThreadRegistration>(*runtime_);
    }

    ~AnchorageAllocModel() override
    {
        registration_.reset();
        runtime_.reset();
    }

    uint64_t
    alloc(size_t size) override
    {
        return reinterpret_cast<uint64_t>(runtime_->halloc(size));
    }

    void
    free(uint64_t token) override
    {
        runtime_->hfree(reinterpret_cast<void *>(token));
    }

    size_t rss() const override { return service_.rss(); }
    size_t activeBytes() const override { return service_.activeBytes(); }
    const char *name() const override { return "anchorage"; }

    /** Give the controller a chance to act (clock-driven). */
    void maintain() override { lastAction_ = controller_.tick(); }

    DefragController &controller() { return controller_; }
    AnchorageService &service() { return service_; }
    Runtime &runtime() { return *runtime_; }
    /** The most recent controller action (pause accounting). */
    const ControlAction &lastAction() const { return lastAction_; }

  private:
    AnchorageService service_;
    std::unique_ptr<Runtime> runtime_;
    std::unique_ptr<ThreadRegistration> registration_;
    DefragController controller_;
    ControlAction lastAction_;
};

} // namespace alaska::anchorage

#endif // ALASKA_ANCHORAGE_ALLOC_MODEL_ADAPTER_H
