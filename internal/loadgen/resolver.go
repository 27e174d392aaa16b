package loadgen

import (
	"sync"
	"time"

	"repro/internal/cluster"
)

// routeKey identifies one (client, object) route — the granularity the
// fleet redirector hashes on.
type routeKey struct {
	client int
	object int
}

// resolver is the redirect-following half of a fleet replay: it asks
// the front-end where a route is served, follows exactly that one hop,
// and caches the answer per route (sticky — a client's transfers for an
// object keep landing on the node the front-end picked, matching how a
// real player caches its redirect). Lookup latency is recorded in the
// replay metrics; a cached route costs nothing.
//
// The hop bound is structural: resolve returns a node address and the
// transfer path never interprets a further REDIRECT (a node that
// redirects is a misconfigured fleet and fails the transfer visibly as
// a redirect loop), so no chain of front-ends can make the client
// wander.
type resolver struct {
	frontend string
	m        *metrics

	mu    sync.Mutex
	cache map[routeKey]string
}

func newResolver(frontend string, m *metrics) *resolver {
	return &resolver{
		frontend: frontend,
		m:        m,
		cache:    make(map[routeKey]string),
	}
}

// resolve returns the serving node for the route, consulting the sticky
// cache first.
func (r *resolver) resolve(key routeKey, player, uri string) (string, error) {
	r.mu.Lock()
	addr, ok := r.cache[key]
	r.mu.Unlock()
	if ok {
		r.m.redirectHit()
		return addr, nil
	}
	begin := time.Now()
	addr, err := cluster.Lookup(r.frontend, player, uri, resolveTimeout)
	if err != nil {
		return "", err
	}
	r.m.redirected(time.Since(begin))
	r.mu.Lock()
	r.cache[key] = addr
	r.mu.Unlock()
	return addr, nil
}

// invalidate drops the route's cached node, but only if it still points
// at the address the caller observed failing — a concurrent re-resolve
// may already have installed a fresh answer worth keeping.
func (r *resolver) invalidate(key routeKey, stale string) {
	r.mu.Lock()
	if r.cache[key] == stale {
		delete(r.cache, key)
	}
	r.mu.Unlock()
}
