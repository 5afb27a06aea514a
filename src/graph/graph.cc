#include "graph.h"

#include <algorithm>
#include <chrono>

#include "obs/obs.h"

namespace sosim::graph {

Handle
OpGraph::input(std::string name, Value v)
{
    SOSIM_REQUIRE(!v.empty(), "OpGraph::input: empty value");
    SOSIM_REQUIRE(v.hasFingerprint(),
                  "OpGraph::input: value has no content fingerprint");
    SOSIM_REQUIRE(byName_.find(name) == byName_.end(),
                  "OpGraph: duplicate node name");
    Node n;
    n.name = name;
    n.inputValue = std::move(v);
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
    SOSIM_REQUIRE(v.hasFingerprint(),
                  "OpGraph::setInput: value has no content fingerprint");
    n.inputValue = std::move(v);
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
    byName_.emplace(std::move(name), nodes_.size());
    nodes_.push_back(std::move(n));
    return Handle{nodes_.size() - 1};
}

const Value &
OpGraph::eval(Handle h)
{
    SOSIM_REQUIRE(h.valid() && h.id < nodes_.size(),
                  "OpGraph::eval: invalid handle");
    Memo memo(nodes_.size());
    return evalNode(h.id, nullptr, memo);
}

Value
OpGraph::eval(Handle h, const Overlay &overlay)
{
    SOSIM_REQUIRE(h.valid() && h.id < nodes_.size(),
                  "OpGraph::eval: invalid handle");
    for (const auto &[id, v] : overlay.values_) {
        SOSIM_REQUIRE(id < nodes_.size(),
                      "OpGraph::eval: overlay handle out of range");
        SOSIM_REQUIRE(nodes_[id].fn == nullptr,
                      "OpGraph::eval: overlay must shadow input nodes");
    }
    Memo memo(nodes_.size());
    return evalNode(h.id, overlay.empty() ? nullptr : &overlay, memo);
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

const Value &
OpGraph::execute(Node &n, std::uint64_t sig, const std::vector<Value> &ins)
{
    ++misses_;
    SOSIM_COUNT("graph.op.cache_miss");
    Value out;
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
    SOSIM_REQUIRE(!out.empty(), "OpGraph: op returned an empty value");
    // The output is named by the signature that produced it, so no op
    // body hashes its payload.
    out.fp_ = sig;
    out.hasFp_ = true;
    ++n.evalCount;
    n.cache.insert(n.cache.begin(), CacheEntry{sig, std::move(out)});
    if (n.cache.size() > kCacheEntries)
        n.cache.pop_back();
    return n.cache.front().value;
}

const Value &
OpGraph::evalNode(std::size_t id, const Overlay *overlay, Memo &memo)
{
    if (memo[id] != nullptr)
        return *memo[id];
    Node &n = nodes_[id];
    if (n.fn == nullptr) {
        if (overlay != nullptr) {
            const auto it = overlay->values_.find(id);
            if (it != overlay->values_.end())
                return it->second;
        }
        SOSIM_REQUIRE(!n.inputValue.empty(),
                      "OpGraph: input node has no value");
        return n.inputValue;
    }
    std::vector<Value> ins;
    ins.reserve(n.inputs.size());
    std::uint64_t sig =
        util::hashCombine(util::fingerprintString(n.name), n.configFp);
    for (const std::size_t in : n.inputs) {
        ins.push_back(evalNode(in, overlay, memo));
        sig = util::hashCombine(sig, ins.back().fingerprint());
    }
    const Value *out = !n.lastValue.empty() && n.lastSig == sig
                           ? &n.lastValue
                           : cacheLookup(n, sig);
    if (out != nullptr) {
        ++hits_;
        SOSIM_COUNT("graph.op.cache_hit");
        SOSIM_EVENT(.kind = obs::EventKind::GraphCacheHit,
                    .label = n.name, .a = sig);
    } else {
        out = &execute(n, sig, ins);
    }
    // The memo keeps a pointer into this node's pin or cache, which only
    // this node's own evaluation writes, and that runs once per eval.
    if (overlay == nullptr && out != &n.lastValue) {
        n.lastSig = sig;
        n.lastValue = *out;
        out = &n.lastValue;
    }
    memo[id] = out;
    return *out;
}

} // namespace sosim::graph
