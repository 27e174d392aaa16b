package cluster

import "hash/maphash"

// routeSeed is the shared maphash seed: fixed at process start so every
// pick in one redirector scores identically, which is all rendezvous
// hashing needs (determinism across processes is not required — the
// contract is per-redirector route stability).
var routeSeed = maphash.MakeSeed()

// routeScore is the rendezvous (highest-random-weight) score of one
// (player, uri, node) triple.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func routeScore(player, uri, addr string) uint64 {
	var h maphash.Hash
	h.SetSeed(routeSeed)
	h.WriteString(player)
	h.WriteByte(0)
	h.WriteString(uri)
	h.WriteByte(0)
	h.WriteString(addr)
	return h.Sum64()
}

// pick routes one (player, uri) by rendezvous hashing over the alive
// nodes, returning ok=false when there are none: each route sticks to
// one node for as long as that node lives, and removing a node moves
// only that node's routes. For a fixed node set the assignment is a
// pure function of the route.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func pick(player, uri string, nodes []Node) (string, bool) {
	if len(nodes) == 0 {
		return "", false
	}
	best := nodes[0].Addr
	bestScore := routeScore(player, uri, best)
	for _, n := range nodes[1:] {
		if s := routeScore(player, uri, n.Addr); s > bestScore {
			best, bestScore = n.Addr, s
		}
	}
	return best, true
}
