#include "graph.h"

#include <algorithm>
#include <chrono>

#include "obs/obs.h"

namespace sosim::graph {

Handle
OpGraph::input(std::string name, Value v)
{
    SOSIM_REQUIRE(!v.empty(), "OpGraph::input: empty value");
    SOSIM_REQUIRE(byName_.find(name) == byName_.end(),
                  "OpGraph: duplicate node name");
    Node n;
    n.name = name;
    n.inputValue = std::move(v);
    n.dirty = false;
    byName_.emplace(std::move(name), nodes_.size());
    nodes_.push_back(std::move(n));
    return Handle{nodes_.size() - 1};
}

void
OpGraph::setInput(Handle h, Value v)
{
    SOSIM_REQUIRE(h.valid() && h.id < nodes_.size(),
                  "OpGraph::setInput: invalid handle");
    Node &n = nodes_[h.id];
    SOSIM_REQUIRE(n.fn == nullptr,
                  "OpGraph::setInput: handle is not an input node");
    SOSIM_REQUIRE(!v.empty(), "OpGraph::setInput: empty value");
    if (v.fingerprint() == n.inputValue.fingerprint()) {
        n.inputValue = std::move(v);
        return; // content unchanged: the cone stays clean
    }
    n.inputValue = std::move(v);
    markDownstreamDirty(h.id);
}

Handle
OpGraph::op(std::string name, std::vector<Handle> inputs,
            std::uint64_t config_fp, OpFn fn)
{
    SOSIM_REQUIRE(fn != nullptr, "OpGraph::op: null function");
    SOSIM_REQUIRE(byName_.find(name) == byName_.end(),
                  "OpGraph: duplicate node name");
    Node n;
    n.name = name;
    n.configFp = config_fp;
    n.fn = std::move(fn);
    n.inputs.reserve(inputs.size());
    for (const Handle &in : inputs) {
        SOSIM_REQUIRE(in.valid() && in.id < nodes_.size(),
                      "OpGraph::op: invalid input handle");
        n.inputs.push_back(in.id);
    }
    const std::size_t id = nodes_.size();
    byName_.emplace(std::move(name), id);
    nodes_.push_back(std::move(n));
    for (const std::size_t in : nodes_[id].inputs)
        nodes_[in].outputs.push_back(id);
    return Handle{id};
}

const Value &
OpGraph::eval(Handle h)
{
    SOSIM_REQUIRE(h.valid() && h.id < nodes_.size(),
                  "OpGraph::eval: invalid handle");
    return evalBase(h.id);
}

Value
OpGraph::eval(Handle h, const Overlay &overlay)
{
    SOSIM_REQUIRE(h.valid() && h.id < nodes_.size(),
                  "OpGraph::eval: invalid handle");
    // The overlay affects exactly the downstream cone of the shadowed
    // inputs; everything else evaluates on the base path and shares the
    // base memo.
    std::vector<unsigned char> affected(nodes_.size(), 0);
    std::vector<std::size_t> frontier;
    for (const auto &[id, v] : overlay.values_) {
        SOSIM_REQUIRE(id < nodes_.size(),
                      "OpGraph::eval: overlay handle out of range");
        SOSIM_REQUIRE(nodes_[id].fn == nullptr,
                      "OpGraph::eval: overlay must shadow input nodes");
        if (!affected[id]) {
            affected[id] = 1;
            frontier.push_back(id);
        }
    }
    while (!frontier.empty()) {
        const std::size_t id = frontier.back();
        frontier.pop_back();
        for (const std::size_t out : nodes_[id].outputs)
            if (!affected[out]) {
                affected[out] = 1;
                frontier.push_back(out);
            }
    }
    return evalShadowed(h.id, overlay, affected);
}

Handle
OpGraph::find(const std::string &name) const
{
    const auto it = byName_.find(name);
    if (it == byName_.end())
        return Handle{};
    return Handle{it->second};
}

std::size_t
OpGraph::evalCount(Handle h) const
{
    return node(h).evalCount;
}

std::size_t
OpGraph::totalEvals() const
{
    std::size_t total = 0;
    for (const Node &n : nodes_)
        total += n.evalCount;
    return total;
}

const std::string &
OpGraph::name(Handle h) const
{
    return node(h).name;
}

const OpGraph::Node &
OpGraph::node(Handle h) const
{
    SOSIM_REQUIRE(h.valid() && h.id < nodes_.size(),
                  "OpGraph: invalid handle");
    return nodes_[h.id];
}

void
OpGraph::markDownstreamDirty(std::size_t id)
{
    std::vector<std::size_t> frontier(1, id);
    while (!frontier.empty()) {
        const std::size_t cur = frontier.back();
        frontier.pop_back();
        for (const std::size_t out : nodes_[cur].outputs) {
            if (nodes_[out].dirty)
                continue; // its cone is already marked
            nodes_[out].dirty = true;
            SOSIM_EVENT(.kind = obs::EventKind::GraphDirty,
                        .label = nodes_[out].name, .a = out);
            frontier.push_back(out);
        }
    }
}

const Value *
OpGraph::cacheLookup(Node &n, std::uint64_t sig)
{
    for (std::size_t i = 0; i < n.cache.size(); ++i) {
        if (n.cache[i].sig != sig)
            continue;
        // Move to front (MRU) so sweeps that flip-flop between a few
        // configurations keep all of them resident.
        if (i != 0)
            std::rotate(n.cache.begin(), n.cache.begin() + (long)i,
                        n.cache.begin() + (long)i + 1);
        return &n.cache.front().value;
    }
    return nullptr;
}

Value
OpGraph::executeSig(Node &n, std::uint64_t sig,
                    const std::vector<Value> &ins)
{
    ++misses_;
    SOSIM_COUNT("graph.op.cache_miss");
    Value out;
#if SOSIM_OBS_ENABLED
    {
        obs::ScopedSpan span("graph.op." + n.name);
        SOSIM_EVENT_SCOPE(.kind = obs::EventKind::GraphEval,
                          .label = n.name, .a = sig,
                          .b = ins.empty() ? 0 : ins[0].fingerprint(),
                          .c = ins.size() < 2 ? 0 : ins[1].fingerprint(),
                          .d = ins.size() < 3 ? 0 : ins[2].fingerprint());
        const auto t0 = std::chrono::steady_clock::now();
        out = n.fn(ins);
        const auto t1 = std::chrono::steady_clock::now();
        const double eval_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        SOSIM_OBSERVE("graph.op.eval_ms", eval_ms);
    }
#else
    out = n.fn(ins);
#endif
    SOSIM_REQUIRE(!out.empty(), "OpGraph: op returned an empty value");
    ++n.evalCount;
    n.cache.insert(n.cache.begin(), CacheEntry{sig, out});
    if (n.cache.size() > kCacheEntries)
        n.cache.pop_back();
    return out;
}

const Value &
OpGraph::evalBase(std::size_t id)
{
    Node &n = nodes_[id];
    if (n.fn == nullptr) {
        SOSIM_REQUIRE(!n.inputValue.empty(),
                      "OpGraph: input node has no value");
        return n.inputValue;
    }
    if (!n.dirty && !n.lastValue.empty()) {
        ++hits_;
        SOSIM_COUNT("graph.op.cache_hit");
        SOSIM_EVENT(.kind = obs::EventKind::GraphCacheHit,
                    .label = n.name, .a = n.lastSig);
        return n.lastValue;
    }
    std::vector<Value> ins;
    ins.reserve(n.inputs.size());
    std::uint64_t sig =
        util::hashCombine(util::fingerprintString(n.name), n.configFp);
    for (const std::size_t in : n.inputs) {
        const Value &v = evalBase(in);
        sig = util::hashCombine(sig, v.fingerprint());
        ins.push_back(v);
    }
    if (const Value *cached = cacheLookup(n, sig)) {
        ++hits_;
        SOSIM_COUNT("graph.op.cache_hit");
        SOSIM_EVENT(.kind = obs::EventKind::GraphCacheHit,
                    .label = n.name, .a = sig);
        n.lastSig = sig;
        n.lastValue = *cached;
        n.dirty = false;
        return n.lastValue;
    }
    Value out = executeSig(n, sig, ins);
    n.lastSig = sig;
    n.lastValue = std::move(out);
    n.dirty = false;
    return n.lastValue;
}

Value
OpGraph::evalShadowed(std::size_t id, const Overlay &overlay,
                      const std::vector<unsigned char> &affected)
{
    Node &n = nodes_[id];
    if (n.fn == nullptr) {
        const auto it = overlay.values_.find(id);
        if (it != overlay.values_.end())
            return it->second;
        SOSIM_REQUIRE(!n.inputValue.empty(),
                      "OpGraph: input node has no value");
        return n.inputValue;
    }
    if (!affected[id])
        return evalBase(id); // share the base memo outside the cone
    std::vector<Value> ins;
    ins.reserve(n.inputs.size());
    std::uint64_t sig =
        util::hashCombine(util::fingerprintString(n.name), n.configFp);
    for (const std::size_t in : n.inputs) {
        Value v = evalShadowed(in, overlay, affected);
        sig = util::hashCombine(sig, v.fingerprint());
        ins.push_back(std::move(v));
    }
    if (const Value *cached = cacheLookup(n, sig)) {
        ++hits_;
        SOSIM_COUNT("graph.op.cache_hit");
        SOSIM_EVENT(.kind = obs::EventKind::GraphCacheHit,
                    .label = n.name, .a = sig);
        return *cached;
    }
    // Deliberately leaves lastValue/dirty untouched: overlay results
    // live only in the MRU cache, so the base memo survives any number
    // of what-ifs.
    return executeSig(n, sig, ins);
}

} // namespace sosim::graph
