package cluster

import (
	"sort"
	"sync"
	"time"
)

// Node is one registered liveserver as the redirector sees it.
type Node struct {
	Addr string
	// Active and Served are the node's last-reported load counters.
	Active int64
	Served int64
	// LastBeat is when the node last registered or heartbeat.
	LastBeat time.Time

	// gen identifies which registration owns this entry (see Register).
	gen int64
}

// Registry tracks the live node set under a heartbeat TTL. All methods
// are safe for concurrent use; expiry is evaluated lazily on read, so
// there is no background sweeper to leak.
type Registry struct {
	ttl time.Duration

	mu    sync.Mutex
	nodes map[string]*Node

	registered int64 // lifetime REGISTER count (re-registrations included)
}

// NewRegistry returns a registry expiring nodes whose last heartbeat is
// older than ttl.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func NewRegistry(ttl time.Duration) *Registry {
	return &Registry{ttl: ttl, nodes: make(map[string]*Node)}
}

// Register adds (or refreshes) a node and returns the registration's
// generation token. A later registration of the same address (a node
// that reconnected) gets a new generation; Deregister requires the
// token, so a stale connection's cleanup cannot wipe the fresh entry.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (r *Registry) Register(addr string, now time.Time) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.registered++
	r.nodes[addr] = &Node{Addr: addr, LastBeat: now, gen: r.registered}
	return r.registered
}

// Beat refreshes a node's liveness and load. It returns false when the
// node is not currently registered — either never was, or its TTL
// expired — in which case the caller must re-register.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (r *Registry) Beat(addr string, active, served int64, now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[addr]
	if !ok {
		return false
	}
	if now.Sub(n.LastBeat) > r.ttl {
		delete(r.nodes, addr)
		return false
	}
	n.Active, n.Served, n.LastBeat = active, served, now
	return true
}

// Deregister removes a node (registration connection closed), but only
// while the entry still belongs to the given registration generation —
// if the node already re-registered over a new connection, the stale
// connection's cleanup must not remove it.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (r *Registry) Deregister(addr string, gen int64) {
	r.mu.Lock()
	if n, ok := r.nodes[addr]; ok && n.gen == gen {
		delete(r.nodes, addr)
	}
	r.mu.Unlock()
}

// Alive returns the unexpired node set, sorted by address so every
// caller sees the same deterministic order. Expired nodes are pruned as
// a side effect.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (r *Registry) Alive(now time.Time) []Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Node, 0, len(r.nodes))
	for addr, n := range r.nodes {
		if now.Sub(n.LastBeat) > r.ttl {
			delete(r.nodes, addr)
			continue
		}
		out = append(out, *n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Registered returns the lifetime REGISTER count, re-registrations
// included.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (r *Registry) Registered() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.registered
}
