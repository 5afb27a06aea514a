#include "span.h"

namespace sosim::obs {

SpanTracer &
SpanTracer::instance()
{
    // Leaked for the same reason as the metrics registry: worker threads
    // and function-local statics may outlive any destruction order we
    // could pick.
    static SpanTracer *tracer = new SpanTracer();
    return *tracer;
}

SpanNode *
SpanTracer::childOf(SpanNode *parent, const std::string &name)
{
    SpanNode *p = parent ? parent : &root_;
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = p->children[name];
    if (!slot)
        slot = std::make_unique<SpanNode>(name, p);
    return slot.get();
}

void
SpanTracer::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    root_.children.clear();
    root_.invocations.store(0, std::memory_order_relaxed);
    root_.totalNanos.store(0, std::memory_order_relaxed);
}

} // namespace sosim::obs
