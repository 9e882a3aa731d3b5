package runner

import (
	"slices"
	"sync"
)

// Cache is a concurrency-safe memoising cache with single-flight
// semantics: the first Get for a key runs compute while concurrent
// callers for the same key block and share the outcome. Successful
// results are retained (forever, or until Cap pushes them out);
// failures are forgotten so a later Get may retry (a sweep aborted by
// cancellation must not poison the cache). The zero value is ready to
// use.
//
// The experiment harness keys profiled {N, p} solution spaces on
// kernel name with one of these, so a grid of parallel experiments
// sweeps each kernel exactly once no matter how many workers ask.
type Cache[K comparable, V any] struct {
	// Cap bounds the resident entries (0 = unbounded): a Get that would
	// exceed it first forgets the oldest entries, so a cache owned by a
	// long-lived process stays bounded. Forgetting an entry in flight
	// is harmless: its waiters still share the outcome, only later
	// callers compute again. Set it before the first Get.
	Cap int

	mu sync.Mutex
	m  map[K]*cacheEntry[V]
	// order lists the keys of m oldest first (kept only when Cap > 0).
	order []K
}

type cacheEntry[V any] struct {
	ready chan struct{}
	val   V
	err   error
}

// Get returns the cached value for key, running compute to fill it on
// first use. compute runs outside the cache lock; concurrent Gets for
// different keys proceed independently.
func (c *Cache[K, V]) Get(key K, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = map[K]*cacheEntry[V]{}
	}
	if e, ok := c.m[key]; ok {
		c.mu.Unlock()
		<-e.ready
		return e.val, e.err
	}
	if c.Cap > 0 {
		for len(c.order) >= c.Cap {
			delete(c.m, c.order[0])
			c.order = c.order[1:]
		}
		c.order = append(c.order, key)
	}
	e := &cacheEntry[V]{ready: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()

	e.val, e.err = compute()
	if e.err != nil {
		c.mu.Lock()
		if c.m[key] == e { // not a successor inserted after e was pushed out
			delete(c.m, key)
			if i := slices.Index(c.order, key); i >= 0 {
				c.order = slices.Delete(c.order, i, i+1)
			}
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e.val, e.err
}

// Lookup returns the cached value without computing. It reports false
// for absent keys and for keys whose computation is still in flight.
func (c *Cache[K, V]) Lookup(key K) (V, bool) {
	c.mu.Lock()
	e, ok := c.m[key]
	c.mu.Unlock()
	if !ok {
		return *new(V), false
	}
	select {
	case <-e.ready:
		return e.val, e.err == nil
	default:
		return *new(V), false
	}
}

// Len reports the number of resident entries (including in-flight
// computations).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Once memoises a single fallible computation: the experiment
// harness's dataset and model weights are built at most once even when
// many workers request them concurrently. Unlike Cache, an error is
// memoised too — retrying a deterministic training pipeline would
// fail identically, and callers need agreeing results.
type Once[V any] struct {
	once sync.Once
	val  V
	err  error
}

// Do returns the memoised result, running f on first call.
func (o *Once[V]) Do(f func() (V, error)) (V, error) {
	o.once.Do(func() { o.val, o.err = f() })
	return o.val, o.err
}
