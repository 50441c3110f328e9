package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLRUCacheEvictsOldest(t *testing.T) {
	c := newLRUCache[*outcome](2)
	a, b, d := &outcome{}, &outcome{}, &outcome{}
	if c.Put("a", a) {
		t.Error("unexpected eviction on first insert")
	}
	c.Put("b", b)
	// Touch a so b becomes the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	if !c.Put("d", d) {
		t.Error("third insert into cap-2 cache should evict")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (least recently used)")
	}
	if got, ok := c.Get("a"); !ok || got != a {
		t.Error("a should have survived")
	}
	if got, ok := c.Get("d"); !ok || got != d {
		t.Error("d should be cached")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestLRUCacheKeepsFirstPublisher(t *testing.T) {
	c := newLRUCache[*outcome](4)
	first, second := &outcome{}, &outcome{}
	c.Put("k", first)
	c.Put("k", second)
	if got, _ := c.Get("k"); got != first {
		t.Error("duplicate Put replaced the first outcome")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestLRUCacheDisabled(t *testing.T) {
	c := newLRUCache[*outcome](0)
	c.Put("k", &outcome{})
	if _, ok := c.Get("k"); ok {
		t.Error("disabled cache should never hit")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.Len())
	}
}

// TestFlightGroupSingleFlight: concurrent callers for one key share exactly
// one computation. The leader blocks inside fn until every follower has
// joined, so the single-run assertion is deterministic, not timing-lucky.
func TestFlightGroupSingleFlight(t *testing.T) {
	const followers = 8
	g := newFlightGroup()
	var runs atomic.Int64
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	want := &outcome{envelope: []byte("x")}

	var wg sync.WaitGroup
	results := make([]*outcome, followers)
	sharedCount := atomic.Int64{}

	// Leader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		out, shared, err := g.Do("k", func() (*outcome, error) {
			runs.Add(1)
			close(leaderIn)
			<-release
			return want, nil
		})
		if err != nil || shared || out != want {
			t.Errorf("leader: out=%v shared=%v err=%v", out, shared, err)
		}
	}()
	<-leaderIn

	// Followers join while the leader is mid-flight.
	joined := make(chan struct{}, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			joined <- struct{}{}
			out, shared, err := g.Do("k", func() (*outcome, error) {
				runs.Add(1)
				return &outcome{}, nil
			})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = out
		}(i)
	}
	for i := 0; i < followers; i++ {
		<-joined
	}
	close(release)
	wg.Wait()

	// Followers that entered Do before the leader landed share its run; any
	// that arrived after the key was forgotten lead their own. Either way
	// the outcome bytes agree, and at least the pre-joined bulk shared.
	if runs.Load() > 2 {
		t.Errorf("runs = %d, want <= 2 (leader plus at most one straggler)", runs.Load())
	}
	for i, out := range results {
		if out == nil {
			t.Errorf("follower %d got nil outcome", i)
		}
	}
	if sharedCount.Load() == 0 {
		t.Error("no follower shared the leader's flight")
	}
}

// TestFlightGroupErrorNotPinned: a failed flight is forgotten, so the next
// caller retries instead of replaying the stale error forever.
func TestFlightGroupErrorNotPinned(t *testing.T) {
	g := newFlightGroup()
	boom := errors.New("boom")
	_, _, err := g.Do("k", func() (*outcome, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	want := &outcome{}
	out, shared, err := g.Do("k", func() (*outcome, error) { return want, nil })
	if err != nil || shared || out != want {
		t.Errorf("retry: out=%v shared=%v err=%v", out, shared, err)
	}
}

// TestFlightGroupDistinctKeys: different keys never share a flight.
func TestFlightGroupDistinctKeys(t *testing.T) {
	g := newFlightGroup()
	var runs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, shared, err := g.Do(fmt.Sprintf("k%d", i), func() (*outcome, error) {
				runs.Add(1)
				return &outcome{}, nil
			})
			if err != nil || shared {
				t.Errorf("key k%d: shared=%v err=%v", i, shared, err)
			}
		}(i)
	}
	wg.Wait()
	if runs.Load() != 4 {
		t.Errorf("runs = %d, want 4", runs.Load())
	}
}
