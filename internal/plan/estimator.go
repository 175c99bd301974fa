package plan

import (
	"sync"
	"sync/atomic"

	"disjunct/internal/store"
)

// Cost is one completed query's measured cost — the exact counters the
// execution paths already produce.
type Cost struct {
	NPCalls  int64
	SATConfl int64
	Micros   int64
}

// entry accumulates commutative sums per (fingerprint, semantics) key.
// Sums instead of an EWMA so that concurrent observations are
// order-independent: any interleaving of the same multiset of
// observations yields the same final estimate (the determinism the
// -race suite asserts), and the means derive on read.
type entry struct {
	count     int64
	sumNP     int64
	sumConfl  int64
	sumMicros int64
}

func (e entry) meanNP() int64 {
	if e.count == 0 {
		return 0
	}
	return e.sumNP / e.count
}

// Estimator is the per-(fingerprint, semantics) cost model. A single
// mutex over the map is enough: observations are a handful of integer
// adds, far cheaper than the NP search they describe.
type Estimator struct {
	mu      sync.Mutex
	entries map[estKey]*entry
	st      *store.Store // write-behind target, may be nil

	observations atomic.Int64
}

// estKey is a composite struct key: the raw fingerprint is binary
// (varint bytes, NULs included), so no in-string separator is safe.
type estKey struct {
	raw, sem string
}

func newEstimator(st *store.Store) *Estimator {
	return &Estimator{entries: make(map[estKey]*entry), st: st}
}

// observe folds one measured cost into the key's sums and writes the
// snapshot behind to the store (the store's flusher batches the I/O).
func (e *Estimator) observe(raw, sem string, c Cost) {
	e.observations.Add(1)
	e.mu.Lock()
	en := e.entries[estKey{raw, sem}]
	if en == nil {
		en = &entry{}
		e.entries[estKey{raw, sem}] = en
	}
	en.count++
	en.sumNP += c.NPCalls
	en.sumConfl += c.SATConfl
	en.sumMicros += c.Micros
	snap := *en
	e.mu.Unlock()
	if e.st != nil {
		e.st.PutEstimate(store.Estimate{
			Raw: raw, Sem: sem,
			Count: snap.count, SumNP: snap.sumNP,
			SumConfl: snap.sumConfl, SumMicros: snap.sumMicros,
		})
	}
}

// estimate returns the key's accumulated entry; ok is false when no
// observation has ever landed (a cold query).
func (e *Estimator) estimate(raw, sem string) (entry, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	en := e.entries[estKey{raw, sem}]
	if en == nil || en.count == 0 {
		return entry{}, false
	}
	return *en, true
}

// seed loads persisted estimates at construction. Same merge rule as
// handoff import so a store seed followed by an import of the same
// snapshot cannot double-count.
func (e *Estimator) seed(list []store.Estimate) { e.merge(list) }

// merge absorbs shipped estimates: for each key the entry with the
// larger observation count wins. Max-by-count is commutative,
// idempotent, and monotone — the same join-semilattice discipline the
// cluster gossip uses — so re-importing a slice, or importing after a
// store seed of the same snapshot, changes nothing.
func (e *Estimator) merge(list []store.Estimate) int {
	accepted := 0
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range list {
		if s.Count <= 0 {
			continue
		}
		k := estKey{s.Raw, s.Sem}
		if en := e.entries[k]; en != nil && en.count >= s.Count {
			continue
		}
		e.entries[k] = &entry{count: s.Count, sumNP: s.SumNP, sumConfl: s.SumConfl, sumMicros: s.SumMicros}
		accepted++
	}
	return accepted
}

// export snapshots every entry for handoff/join slices.
func (e *Estimator) export() []store.Estimate {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]store.Estimate, 0, len(e.entries))
	for k, en := range e.entries {
		out = append(out, store.Estimate{
			Raw: k.raw, Sem: k.sem,
			Count: en.count, SumNP: en.sumNP,
			SumConfl: en.sumConfl, SumMicros: en.sumMicros,
		})
	}
	return out
}

func (e *Estimator) len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.entries)
}
