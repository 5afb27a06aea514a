#ifndef SOSIM_GRAPH_GRAPH_H
#define SOSIM_GRAPH_GRAPH_H

/**
 * @file
 * OpGraph: a small DAG of typed ops with signature caching and what-if
 * overlays.
 *
 * The pipeline (inject -> repair -> stats -> embed -> place -> remap ->
 * monitor) used to be hard-wired call chains: editing one trace or one
 * config field recomputed everything from scratch.  Here each stage is a
 * node whose output is an immutable Value; a node's *signature* is the
 * hash of its op name, its config fingerprint and its inputs'
 * fingerprints, so a node re-executes only when something it can actually
 * observe changed.
 *
 * Identity: an input node's Value carries a caller-supplied content
 * fingerprint, so restoring an input or shadowing it with a
 * content-equal copy changes no signature.  An op's output is named by
 * the signature that produced it: op bodies return bare payloads and the
 * graph stamps each output with its node signature.  Two executions
 * that happen to produce equal payloads from different inputs therefore
 * have different identities, and their consumers re-execute.
 *
 * Every evaluation walks the node's ancestor cone once (a node reached
 * along a second path is answered from a per-evaluation memo), re-hashes
 * each op's signature, and answers from two layers before executing:
 *
 *   - base pin: the last (signature, value) produced by an evaluation
 *     without an overlay.  Only such evaluations write it, so no number
 *     of what-ifs can evict the base result.
 *   - signature cache: every node keeps a small MRU cache of
 *     (signature, value) pairs, so flip-flopping between configurations
 *     (base vs overlay, A/B sweep points) revisits old results instead of
 *     recomputing them.
 *
 * Overlays are the what-if surface: an Overlay shadows a subset of input
 * nodes with alternative Values, and OpGraph::eval(handle, overlay)
 * evaluates under that shadow *without copying the base inputs or
 * disturbing the base pin*.  Nodes outside the shadowed inputs' cone keep
 * their base signatures and are served from the pin, which is how
 * ablation sweeps share upstream work across sweep points.
 *
 * Determinism: evaluation order is the depth-first order of each node's
 * input list; ops must be pure functions of their inputs (enforced by
 * convention, not the type system) and caching never changes *what* is
 * computed, only *whether* it is recomputed — so strict-mode results are
 * bit-identical to the un-graphed call chain.  Thread-safety: an OpGraph
 * is single-threaded (ops may parallelize internally with
 * util::parallelFor, which is deterministic).
 *
 * Telemetry: each op execution opens a "graph.op.<name>" span, counts
 * graph.op.cache_hit / graph.op.cache_miss, and records its latency in
 * the graph.op.eval_ms histogram.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/hash.h"

namespace sosim::graph {

// perfbench/main.cc still spells util::hashCombine as graph::hashCombine.
using util::hashCombine;

/**
 * An immutable, type-erased, cheaply-copyable value flowing along graph
 * edges.  Holds a shared_ptr to the payload plus the fingerprint that
 * names it for caching: a content hash for input and overlay values
 * (which must carry one), or the producing node's signature for op
 * outputs (stamped by the graph; op bodies box bare payloads).  Values
 * with equal fingerprints are interchangeable to the cache, so content
 * fingerprints must be collision-free in practice.
 */
class Value
{
  public:
    Value() = default;

    /** Box an op body's output; the graph names it by signature. */
    template <typename T>
    static Value of(T payload)
    {
        Value v;
        v.box_ = std::make_shared<const T>(std::move(payload));
        v.type_ = &typeid(T);
        return v;
    }

    /** Box an input or overlay `payload` with its content fingerprint. */
    template <typename T>
    static Value of(T payload, std::uint64_t fingerprint)
    {
        Value v = of(std::move(payload));
        v.fp_ = fingerprint;
        v.hasFp_ = true;
        return v;
    }

    /** Typed view of the payload; the type must match exactly. */
    template <typename T>
    const T &as() const
    {
        SOSIM_REQUIRE(box_ != nullptr, "graph::Value: empty value");
        SOSIM_REQUIRE(*type_ == typeid(T),
                      "graph::Value: payload type mismatch");
        return *static_cast<const T *>(box_.get());
    }

    /** as<T>(), sharing ownership of the boxed payload. */
    template <typename T>
    std::shared_ptr<const T> share() const
    {
        return std::shared_ptr<const T>(box_, &as<T>());
    }

    /** True when the payload is exactly a T. */
    template <typename T>
    bool is() const
    {
        return box_ != nullptr && *type_ == typeid(T);
    }

    /** True when no payload has been boxed. */
    bool empty() const { return box_ == nullptr; }

    /** True when the value carries a fingerprint. */
    bool hasFingerprint() const { return hasFp_; }

    /** Identity for caching: content hash or producing signature. */
    std::uint64_t fingerprint() const { return fp_; }

  private:
    friend class OpGraph;

    std::shared_ptr<const void> box_;
    const std::type_info *type_ = nullptr;
    std::uint64_t fp_ = 0;
    bool hasFp_ = false;
};

/** Opaque id of a node in an OpGraph. */
struct Handle {
    static constexpr std::size_t kInvalid = ~std::size_t{0};

    std::size_t id = kInvalid;

    bool valid() const { return id != kInvalid; }
    bool operator==(const Handle &o) const { return id == o.id; }
    bool operator!=(const Handle &o) const { return id != o.id; }
};

/**
 * A shadow map over a graph's *input* nodes: evaluating under an overlay
 * substitutes the shadowed Values without touching the base graph.
 * Overlays compose — `a.merged(b)` applies b's entries on top of a's —
 * so a sweep can stack "repair with hold_last" on "re-place with seed 9".
 */
class Overlay
{
  public:
    Overlay() = default;

    /** Shadow input `h` with `v`; returns *this for chaining. */
    Overlay &set(Handle h, Value v)
    {
        SOSIM_REQUIRE(h.valid(), "graph::Overlay: invalid handle");
        SOSIM_REQUIRE(!v.empty(), "graph::Overlay: empty value");
        SOSIM_REQUIRE(v.hasFingerprint(),
                      "graph::Overlay: value has no content fingerprint");
        values_[h.id] = std::move(v);
        return *this;
    }

    /** This overlay with `later`'s entries applied on top. */
    Overlay merged(const Overlay &later) const
    {
        Overlay out(*this);
        for (const auto &[id, v] : later.values_)
            out.values_[id] = v;
        return out;
    }

    /** True when `h` is shadowed. */
    bool shadows(Handle h) const { return values_.count(h.id) != 0; }

    /** Number of shadowed inputs. */
    std::size_t size() const { return values_.size(); }

    bool empty() const { return values_.empty(); }

  private:
    friend class OpGraph;
    std::map<std::size_t, Value> values_;
};

/**
 * The function body of an op: pure inputs -> output, boxed with
 * Value::of(payload).  The graph names the output by its signature.
 */
using OpFn = std::function<Value(const std::vector<Value> &)>;

/**
 * A DAG of input nodes and op nodes.  Build with input()/op(), evaluate
 * with eval(); edit inputs with setInput() or evaluate what-ifs with
 * eval(handle, overlay).  Move-only.
 */
class OpGraph
{
  public:
    /** Per-node MRU signature-cache capacity (base + a few overlays). */
    static constexpr std::size_t kCacheEntries = 4;

    OpGraph() = default;
    OpGraph(const OpGraph &) = delete;
    OpGraph &operator=(const OpGraph &) = delete;
    OpGraph(OpGraph &&) noexcept = default;
    OpGraph &operator=(OpGraph &&) noexcept = default;

    /**
     * Add an input node holding `v`, which must carry a content
     * fingerprint.  Names must be unique.
     */
    Handle input(std::string name, Value v);

    /**
     * Replace input `h`'s value (which must carry a content fingerprint).
     * Downstream ops re-execute on their next evaluation only if the
     * fingerprint actually changed.
     */
    void setInput(Handle h, Value v);

    /**
     * Add an op node.  `config_fp` fingerprints whatever configuration
     * the op closes over (it is hashed into the node's signature);
     * configuration that should invalidate selectively belongs in an
     * input node instead.  Names must be unique.
     */
    Handle op(std::string name, std::vector<Handle> inputs,
              std::uint64_t config_fp, OpFn fn);

    /** Evaluate a node (and lazily its ancestors); memoized. */
    const Value &eval(Handle h);

    /** Evaluate a node under an overlay; the base pin is untouched. */
    Value eval(Handle h, const Overlay &overlay);

    /** Node handle by unique name (invalid handle when absent). */
    Handle find(const std::string &name) const;

    /** Number of nodes (inputs + ops). */
    std::size_t size() const { return nodes_.size(); }

    /** Times node `h`'s function body actually executed (lifetime). */
    std::size_t evalCount(Handle h) const;

    /** Total op executions across the graph (sum of evalCount). */
    std::size_t totalEvals() const;

    /** Graph-local cache hits (ops answered by the pin or the MRU). */
    std::uint64_t cacheHits() const { return hits_; }

    /** Graph-local cache misses (op executions). */
    std::uint64_t cacheMisses() const { return misses_; }

    /** Name of node `h`. */
    const std::string &name(Handle h) const;

  private:
    struct CacheEntry {
        std::uint64_t sig = 0;
        Value value;
    };

    struct Node {
        std::string name;
        std::vector<std::size_t> inputs;
        std::uint64_t configFp = 0;
        OpFn fn; // null for input nodes
        Value inputValue;
        // Base pin: written only by evaluations without an overlay.
        std::uint64_t lastSig = 0;
        Value lastValue;
        std::vector<CacheEntry> cache;
        std::size_t evalCount = 0;
    };

    // One evaluation's answers, by node id (null: not visited yet).
    using Memo = std::vector<const Value *>;

    const Node &node(Handle h) const;
    const Value &evalNode(std::size_t id, const Overlay *overlay,
                          Memo &memo);
    const Value &execute(Node &n, std::uint64_t sig,
                         const std::vector<Value> &ins);
    const Value *cacheLookup(Node &n, std::uint64_t sig);

    std::vector<Node> nodes_;
    std::map<std::string, std::size_t, std::less<>> byName_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace sosim::graph

#endif // SOSIM_GRAPH_GRAPH_H
