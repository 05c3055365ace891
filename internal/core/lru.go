package core

import (
	"container/list"
	"sync"
)

// lru is the bounded least-recently-used map under both of core's caches,
// the plan cache and the prediction cache. Safe for concurrent use.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *lruEntry[K, V]
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{cap: capacity, order: list.New(), items: make(map[K]*list.Element)}
}

// get returns a copy, taken under the lock, of the value stored under k, and
// marks it most recently used.
func (c *lru[K, V]) get(k K) (v V, ok bool) {
	c.mu.Lock()
	if el, found := c.items[k]; found {
		c.order.MoveToFront(el)
		v, ok = el.Value.(*lruEntry[K, V]).val, true
	}
	c.mu.Unlock()
	return v, ok
}

// put stores v under k as the most recently used value. At capacity the
// least recently used entry and its list element are taken over for it.
func (c *lru[K, V]) put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.items[k]
	switch {
	case found:
	case c.order.Len() >= c.cap:
		el = c.order.Back()
		delete(c.items, el.Value.(*lruEntry[K, V]).key)
		c.items[k] = el
	default:
		el = c.order.PushFront(&lruEntry[K, V]{})
		c.items[k] = el
	}
	e := el.Value.(*lruEntry[K, V])
	e.key, e.val = k, v
	c.order.MoveToFront(el)
}

// len reports the current entry count.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
