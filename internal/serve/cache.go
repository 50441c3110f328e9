package serve

import (
	"bytes"
	"container/list"
	"encoding/json"
	"sync"

	"ftsched/internal/sched"
)

// outcome is one computed response, cached and replayed byte-for-byte.
// Outcomes are immutable once published, apart from the CLI rendering,
// which is built at most once under cliOnce.
type outcome struct {
	// envelope is the default response body (indented JSON + newline).
	envelope []byte
	// sch is the validated schedule (schedule kind only), with every
	// memoized view built before publication, so certify and simulate read
	// it concurrently without writing to it. Nil for other kinds.
	sch *sched.Schedule

	cliOnce sync.Once
	cli     []byte
	cliErr  error
}

// cliBytes returns the ?format=cli body: the exact bytes the ftsched CLI
// prints with -format json. Few requests ask for it, so it is rendered from
// the kept schedule on first use rather than with every outcome.
func (o *outcome) cliBytes() ([]byte, error) {
	o.cliOnce.Do(func() {
		compact, err := o.sch.MarshalJSON()
		if err != nil {
			o.cliErr = err
			return
		}
		// The CLI contract: `ftsched -format json` prints the schedule
		// document indented by two spaces plus a trailing newline. Keep in
		// lockstep with cmd/ftsched.
		var cli bytes.Buffer
		if err := json.Indent(&cli, compact, "", "  "); err != nil {
			o.cliErr = err
			return
		}
		cli.WriteByte('\n')
		o.cli = cli.Bytes()
	})
	return o.cli, o.cliErr
}

// lruCache is a mutex-guarded LRU keyed by content hash. The server keeps
// two: response outcomes, and decoded problems. Only successes enter either
// cache; deterministic failures (malformed documents, infeasible problems,
// missed deadlines) are cheap to recompute and keeping them out makes cache
// poisoning through transient conditions impossible.
type lruCache[V any] struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element
}

// lruEntry is one cache slot.
type lruEntry[V any] struct {
	key string
	val V
}

// newLRUCache returns an empty cache holding at most cap values; cap <= 0
// disables caching (every Get misses, Put discards).
func newLRUCache[V any](cap int) *lruCache[V] {
	return &lruCache[V]{cap: cap, order: list.New(), entries: make(map[string]*list.Element)}
}

// Get returns the cached value for key, refreshing its recency.
func (c *lruCache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Put inserts key -> val, evicting the least recently used entry beyond
// capacity. It reports whether an eviction happened.
func (c *lruCache[V]) Put(key string, val V) (evicted bool) {
	if c.cap <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// A concurrent leader may have published first; keep the existing
		// value (both are equal by the determinism contract).
		c.order.MoveToFront(el)
		return false
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	if c.order.Len() <= c.cap {
		return false
	}
	oldest := c.order.Back()
	c.order.Remove(oldest)
	delete(c.entries, oldest.Value.(*lruEntry[V]).key)
	return true
}

// Len returns the number of cached values.
func (c *lruCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// flight is one in-progress computation shared by concurrent identical
// requests: the leader computes, followers wait on done and read the
// published result.
type flight struct {
	done chan struct{}
	out  *outcome
	err  error
}

// flightGroup deduplicates concurrent computations by key (the canonical
// content hash): the first caller becomes the leader, later callers for the
// same key block until the leader publishes, then share its outcome. Keys
// are forgotten once the flight lands, so a failed computation is retried
// by the next request rather than pinned.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// Do runs fn once per key among concurrent callers. It reports the shared
// outcome and whether this caller was a follower (shared someone else's
// run).
func (g *flightGroup) Do(key string, fn func() (*outcome, error)) (out *outcome, shared bool, err error) {
	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-f.done
		return f.out, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	f.out, f.err = fn()
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
	return f.out, false, f.err
}
