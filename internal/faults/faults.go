// Package faults is the deterministic fault-injection subsystem of the
// execution engine. The paper's Section V specifies a forgiving error model —
// execution errors leave output objects invalid, the sequence continues, and
// the error string explains what happened — and this package exists to
// exercise that model systematically rather than waiting for real allocation
// failures or operator bugs: tests (and the E7b recovery experiment) install
// a seeded plan of injection rules, and the engine's kernels and executor
// consult the plan at named sites.
//
// Three fault kinds are injectable:
//
//   - OOM — an allocation failure (GrB_OUT_OF_MEMORY). Recoverable: the
//     engine retries the reference kernel once before surfacing it.
//   - KernelErr — an unspecified kernel failure (surfaces as GrB_PANIC,
//     "unknown internal error"). Recoverable like OOM.
//   - PanicFault — a fault in a user-operator path (GrB_PANIC). Not eligible
//     for kernel fallback: it takes the genuine panic-recovery route.
//
// The package also hosts the allocation-budget governor: GovernAlloc makes
// oversized bitmap, transpose, hypersparse and delta allocations fail with
// OOM *before* they are attempted (Go cannot recover a real out-of-memory
// condition), which is how SuiteSparse:GraphBLAS treats allocation failure —
// a first-class, testable outcome rather than an abort.
//
// Everything is deterministic: rules fire on per-site call counts and a
// seeded RNG, so a schedule replays identically across runs and across
// blocking/nonblocking execution modes (the differential sweep depends on
// this). The package depends only on the leaf observability registry
// (internal/obs, where every injection is also counted), so both
// internal/core and internal/format may import it.
package faults

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"graphblas/internal/obs"
)

// Kind classifies an injected fault.
type Kind uint8

const (
	// OOM is an injected allocation failure.
	OOM Kind = iota + 1
	// KernelErr is an injected unspecified kernel failure.
	KernelErr
	// PanicFault is an injected user-operator-path fault.
	PanicFault
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case OOM:
		return "OutOfMemory"
	case KernelErr:
		return "KernelFailure"
	case PanicFault:
		return "Panic"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Fault is the value an injection site raises: as a returned error from
// Check, or as a panic value from Step/GovernAlloc inside kernels that have
// no error return. The executor recognizes it when recovering and maps it to
// the matching GraphBLAS Info code.
type Fault struct {
	Site string
	Kind Kind
	// Bytes is the size of the denied allocation for governor faults, 0 for
	// injected ones.
	Bytes int64
}

// Error implements the error interface.
func (f *Fault) Error() string {
	if f.Bytes > 0 {
		return fmt.Sprintf("allocation of %d bytes denied by governor at %s", f.Bytes, f.Site)
	}
	return fmt.Sprintf("injected %v at %s", f.Kind, f.Site)
}

// Rule describes one injection rule of a fault plan. Zero-valued gates are
// permissive: a Rule{Site: "MxM", Kind: OOM} injects on every MxM execution.
type Rule struct {
	// Site selects the injection sites the rule applies to: exact match, a
	// "prefix*" glob, or ""/"*" for every site.
	Site string
	// Kind is the fault to inject.
	Kind Kind
	// After skips the first After matching calls before injecting.
	After int
	// Every injects on every Every-th eligible call (1 or 0 = each).
	Every int
	// Prob, when in (0, 1), gates each eligible call on a seeded coin flip.
	Prob float64
	// Times caps the number of injections from this rule (0 = unlimited).
	Times int
}

func (r *Rule) matches(site string) bool {
	switch {
	case r.Site == "" || r.Site == "*":
		return true
	case len(r.Site) > 0 && r.Site[len(r.Site)-1] == '*':
		p := r.Site[:len(r.Site)-1]
		return len(site) >= len(p) && site[:len(p)] == p
	default:
		return r.Site == site
	}
}

// registry holds the active plan. A single mutex serializes rule evaluation;
// injection sites sit at kernel entry and executor boundaries (never inside
// parallel loops), so contention is negligible and, more importantly, the
// rule evaluation order — and therefore the schedule — is deterministic.
type registry struct {
	mu    sync.Mutex
	seed  int64
	rules []Rule
	hits  []int          // injections fired per rule
	calls map[string]int // per-site call counts
	rng   *rand.Rand
}

var (
	enabled  atomic.Bool
	injected atomic.Int64
	// allocBudget is the per-allocation byte cap of the governor. It applies
	// even with no fault plan installed, so a genuinely absurd allocation
	// (overflowed size computation, hostile input) fails cleanly.
	allocBudget atomic.Int64
	reg         = registry{calls: map[string]int{}}
)

// DefaultAllocBudget is the governor's default per-allocation cap: 1 TiB,
// far above anything the engine legitimately allocates, so it only trips on
// pathological sizes unless a test lowers it.
const DefaultAllocBudget int64 = 1 << 40

func init() { allocBudget.Store(DefaultAllocBudget) }

// Configure installs a fault plan: the rules, a seed for probabilistic
// gates, and zeroed call/injection counters. It replaces any previous plan.
func Configure(seed int64, rules ...Rule) {
	reg.mu.Lock()
	reg.seed = seed
	reg.rules = append([]Rule(nil), rules...)
	reg.hits = make([]int, len(rules))
	reg.calls = map[string]int{}
	reg.rng = rand.New(rand.NewSource(seed))
	reg.mu.Unlock()
	injected.Store(0)
	enabled.Store(len(rules) > 0)
}

// Disable removes the fault plan. The allocation governor stays active at
// its configured budget.
func Disable() {
	enabled.Store(false)
	reg.mu.Lock()
	reg.rules = nil
	reg.hits = nil
	reg.calls = map[string]int{}
	reg.rng = nil
	reg.mu.Unlock()
}

// Enabled reports whether a fault plan is installed.
func Enabled() bool { return enabled.Load() }

// Reset zeroes the call and injection counters but keeps the installed
// rules and re-seeds the RNG, so the same schedule replays — the property
// the blocking/nonblocking differential sweep relies on.
func Reset() {
	reg.mu.Lock()
	reg.calls = map[string]int{}
	if reg.rng != nil {
		reg.rng = rand.New(rand.NewSource(reg.seed))
	}
	for i := range reg.hits {
		reg.hits[i] = 0
	}
	reg.mu.Unlock()
	injected.Store(0)
}

// InjectedCount reports the number of faults injected since the last
// Configure/Reset.
func InjectedCount() int64 { return injected.Load() }

// SetAllocBudget sets the governor's per-allocation byte cap and returns the
// previous one. n <= 0 restores DefaultAllocBudget.
func SetAllocBudget(n int64) int64 {
	if n <= 0 {
		n = DefaultAllocBudget
	}
	return allocBudget.Swap(n)
}

// AllocBudget reports the governor's current per-allocation byte cap.
func AllocBudget() int64 { return allocBudget.Load() }

// evaluate bumps the site's call count and returns the fault the plan
// injects at this call, if any.
func evaluate(site string) *Fault {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.rules == nil {
		return nil
	}
	reg.calls[site]++
	n := reg.calls[site]
	for i := range reg.rules {
		r := &reg.rules[i]
		if !r.matches(site) {
			continue
		}
		if n <= r.After {
			continue
		}
		if r.Every > 1 && (n-r.After-1)%r.Every != 0 {
			continue
		}
		if r.Times > 0 && reg.hits[i] >= r.Times {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && reg.rng.Float64() >= r.Prob {
			continue
		}
		reg.hits[i]++
		injected.Add(1)
		obs.FaultsInjected.Inc()
		return &Fault{Site: site, Kind: r.Kind}
	}
	return nil
}

// Check consults the plan at an executor-level site (the op name). OOM and
// KernelErr faults come back as a non-nil *Fault for the caller to turn into
// an execution error; a PanicFault panics, taking the same route a faulty
// user operator would.
func Check(site string) *Fault {
	if !enabled.Load() {
		return nil
	}
	f := evaluate(site)
	if f != nil && f.Kind == PanicFault {
		panic(f)
	}
	return f
}

// Step consults the plan at a kernel-internal site. Kernels have value-only
// signatures, so any injected fault is raised as a panic carrying the
// *Fault; the format dispatch recovers OOM/KernelErr and retries the generic
// CSR path, while PanicFault propagates to the executor's panic recovery.
func Step(site string) {
	if !enabled.Load() {
		return
	}
	if f := evaluate(site); f != nil {
		panic(f)
	}
}

// PlanCoversKernelSites reports whether any installed rule could match a
// kernel-internal (dotted) site or the allocation governor, as opposed to
// only exact executor-level op names. Kernel sites draw from the plan in the
// middle of op bodies, so a DAG-parallel flush must serialize entire op
// bodies to keep such a plan's schedule deterministic; plans made of exact
// op-name rules only need the op-level draw ordered (see Sequencer), letting
// kernel work overlap.
func PlanCoversKernelSites() bool {
	if !enabled.Load() {
		return false
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for i := range reg.rules {
		s := reg.rules[i].Site
		if s == "" || s == "*" ||
			strings.Contains(s, ".") ||
			strings.HasSuffix(s, "*") {
			return true
		}
	}
	return false
}

// Sequencer orders fault-plan draws from concurrently executing operations
// by program position: position i's Wait returns only once every position
// j < i has released. Combined with the DAG scheduler's min-position
// dispatch (which guarantees the smallest unfinished position is always
// running or about to run, never parked behind blocked workers), this makes
// the per-site call counts and the seeded RNG advance in exactly the
// sequential-flush order, so a fault schedule replays identically under a
// parallel flush.
//
// Release is idempotent and must eventually be called for every position —
// including operations that short-circuit before reaching their injection
// site. A nil *Sequencer is inert: Wait and Release are no-ops, so callers
// can pass nil when no fault plan is installed.
type Sequencer struct {
	mu   sync.Mutex
	cond *sync.Cond
	done []bool
	next int // smallest position not yet released
}

// NewSequencer returns a Sequencer for positions [0, n).
func NewSequencer(n int) *Sequencer {
	s := &Sequencer{done: make([]bool, n)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Wait blocks until every position before pos has been released.
func (s *Sequencer) Wait(pos int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for s.next < pos {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Release marks pos as done, unblocking later positions once every earlier
// one is also done. Calling it more than once for the same pos is harmless.
func (s *Sequencer) Release(pos int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done[pos] {
		s.done[pos] = true
		for s.next < len(s.done) && s.done[s.next] {
			s.next++
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// GovernAlloc is the allocation-budget governor: called with the byte size
// of an allocation a kernel or conversion is about to attempt, it panics
// with an OOM *Fault if the size exceeds the budget — the allocation fails
// *before* it is attempted — or if the plan injects an OOM at the site.
func GovernAlloc(site string, bytes int64) {
	if bytes > allocBudget.Load() {
		injected.Add(1)
		obs.FaultsInjected.Inc()
		panic(&Fault{Site: site, Kind: OOM, Bytes: bytes})
	}
	if !enabled.Load() {
		return
	}
	if f := evaluate(site); f != nil {
		if f.Kind != PanicFault {
			f.Kind = OOM
		}
		panic(f)
	}
}
