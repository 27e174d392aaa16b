// Package cluster is a redirector front-end over registered
// liveserver nodes. No program runs it: it stays as the subject of the
// benchmark/layers/cluster.go probe, which times one redirect hop, and
// goes with that probe (ROADMAP item 4a).
//
// The front-end speaks two line protocols on one listener, dispatched
// by the first verb of a connection:
//
// Clients:
//
//	C: HELLO <player-id>
//	S: OK HELLO
//	C: START <uri> [<session> <seq>]
//	S: REDIRECT <host:port>          (or "ERR no nodes")
//	...                              (more STARTs allowed)
//	C: QUIT
//	S: OK BYE
//
// The client then dials the redirected node and replays the transfer
// there with the full liveserver protocol. A node never redirects.
//
// Nodes:
//
//	N: REGISTER <host:port>
//	S: OK REGISTER
//	N: BEAT <active> <served>        (periodic, on the same connection)
//	S: OK                            (or "ERR unregistered" after expiry)
//
// Liveness is dual: the registration connection dropping deregisters
// the node immediately, and a heartbeat older than the TTL expires it
// even while the connection lingers. A node whose BEAT is answered with
// "ERR unregistered" re-REGISTERs on the same connection.
//
// Node choice is rendezvous hashing over (player, uri): deterministic
// for a fixed node set, and removing a node moves only its routes.
package cluster

import (
	"errors"
)

// ErrCluster reports a redirector-protocol violation.
var ErrCluster = errors.New("cluster: protocol error")

// MaxLineBytes bounds one control line on the redirector port.
const MaxLineBytes = 512
