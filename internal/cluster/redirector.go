package cluster

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RedirectorConfig parameterizes the redirector.
type RedirectorConfig struct {
	// TTL expires a node whose heartbeats stop arriving. Node death is
	// usually detected faster — the registration connection dropping
	// deregisters immediately — so the TTL is the wedged-process bound.
	TTL time.Duration
}

// The redirector's connection deadlines.
const (
	// idleTimeout drops a connection silent between commands.
	idleTimeout = 60 * time.Second
	// writeTimeout bounds every reply write.
	writeTimeout = 5 * time.Second
)

// DefaultRedirectorConfig expires silent nodes after 2 seconds.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func DefaultRedirectorConfig() RedirectorConfig {
	return RedirectorConfig{TTL: 2 * time.Second}
}

// Redirector is one TCP listener serving both the client redirect
// protocol and the node registration protocol.
type Redirector struct {
	cfg RedirectorConfig
	reg *Registry
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	redirects atomic.Int64
}

// ServeRedirector starts a redirector on addr ("127.0.0.1:0" for an
// ephemeral port).
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func ServeRedirector(addr string, cfg RedirectorConfig) (*Redirector, error) {
	if cfg.TTL <= 0 {
		return nil, fmt.Errorf("%w: TTL %v", ErrCluster, cfg.TTL)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	r := &Redirector{
		cfg:   cfg,
		reg:   NewRegistry(cfg.TTL),
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
	}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// Addr returns the listening address.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (r *Redirector) Addr() string { return r.ln.Addr().String() }

// Registry exposes the node registry.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (r *Redirector) Registry() *Registry { return r.reg }

// Redirects returns the number of REDIRECT replies issued.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (r *Redirector) Redirects() int64 { return r.redirects.Load() }

// Close stops accepting, closes every connection, and drains handlers.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (r *Redirector) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	err := r.ln.Close()
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	return err
}

//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (r *Redirector) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		if !r.track(conn) {
			conn.Close()
			continue
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer r.untrack(conn)
			r.handle(conn)
		}()
	}
}

//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (r *Redirector) track(conn net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.conns[conn] = struct{}{}
	return true
}

//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (r *Redirector) untrack(conn net.Conn) {
	r.mu.Lock()
	delete(r.conns, conn)
	r.mu.Unlock()
	conn.Close()
}

// reply writes one line under the write deadline.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (r *Redirector) reply(conn net.Conn, w *bufio.Writer, line string) error {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := w.WriteString(line + "\n"); err != nil {
		return err
	}
	return w.Flush()
}

// readCommand reads one bounded line and splits it into verb + fields.
// The reader's buffer is sized to MaxLineBytes (see handle), so a peer
// streaming an endless newline-free line is rejected as soon as the
// buffer fills rather than accumulating without limit.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func readCommand(reader *bufio.Reader) (string, []string, error) {
	line, err := reader.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return "", nil, fmt.Errorf("%w: line exceeds %d bytes", ErrCluster, MaxLineBytes)
	}
	if err != nil {
		return "", nil, err
	}
	fields := strings.Fields(string(line))
	if len(fields) == 0 {
		return "", nil, fmt.Errorf("%w: empty command", ErrCluster)
	}
	return fields[0], fields[1:], nil
}

// handle dispatches one connection by its first verb: REGISTER starts a
// node session, HELLO a client session; anything else is an error.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (r *Redirector) handle(conn net.Conn) {
	reader := bufio.NewReaderSize(conn, MaxLineBytes)
	writer := bufio.NewWriterSize(conn, 4096)
	conn.SetReadDeadline(time.Now().Add(idleTimeout))
	verb, args, err := readCommand(reader)
	if err != nil {
		return
	}
	switch verb {
	case "REGISTER":
		r.nodeSession(conn, reader, writer, verb, args)
	case "HELLO":
		r.clientSession(conn, reader, writer, args)
	default:
		r.reply(conn, writer, "ERR unknown verb "+verb)
	}
}

// nodeSession serves one node's registration connection: REGISTER and
// BEAT lines until EOF, which deregisters the node immediately (dead
// process → fast failover). A BEAT after TTL expiry is answered with
// "ERR unregistered"; the node re-REGISTERs on the same connection.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (r *Redirector) nodeSession(conn net.Conn, reader *bufio.Reader, writer *bufio.Writer, verb string, args []string) {
	registered := ""
	var gen int64
	defer func() {
		if registered != "" {
			r.reg.Deregister(registered, gen)
		}
	}()
	for {
		switch verb {
		case "REGISTER":
			if len(args) != 1 || args[0] == "" {
				r.reply(conn, writer, "ERR REGISTER wants <host:port>")
				return
			}
			if registered != "" && registered != args[0] {
				// One connection registers one node; a second address
				// would leave the first undead on EOF.
				r.reply(conn, writer, "ERR already registered as "+registered)
				return
			}
			registered = args[0]
			gen = r.reg.Register(registered, time.Now())
			if err := r.reply(conn, writer, "OK REGISTER"); err != nil {
				return
			}
		case "BEAT":
			if registered == "" {
				r.reply(conn, writer, "ERR BEAT before REGISTER")
				return
			}
			active, served, perr := parseBeat(args)
			if perr != nil {
				r.reply(conn, writer, "ERR "+perr.Error())
				return
			}
			msg := "OK"
			if !r.reg.Beat(registered, active, served, time.Now()) {
				msg = "ERR unregistered"
			}
			if err := r.reply(conn, writer, msg); err != nil {
				return
			}
		default:
			r.reply(conn, writer, "ERR unknown verb "+verb)
			return
		}
		conn.SetReadDeadline(time.Now().Add(idleTimeout))
		var err error
		verb, args, err = readCommand(reader)
		if err != nil {
			return
		}
	}
}

//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func parseBeat(args []string) (active, served int64, err error) {
	if len(args) != 2 {
		return 0, 0, fmt.Errorf("BEAT wants <active> <served>")
	}
	active, err = strconv.ParseInt(args[0], 10, 64)
	if err != nil || active < 0 {
		return 0, 0, fmt.Errorf("bad BEAT active %q", args[0])
	}
	served, err = strconv.ParseInt(args[1], 10, 64)
	if err != nil || served < 0 {
		return 0, 0, fmt.Errorf("bad BEAT served %q", args[1])
	}
	return active, served, nil
}

// clientSession serves one client's route lookups: HELLO has been read;
// each START is answered with a REDIRECT to the node pick names. The
// session/seq tag, if present, is accepted and ignored — routing is by
// (player, uri) only, so a route's node does not depend on which
// transfer of a session asks.
//
//lsm:keep -- benchmark/layers/cluster.go probe; ROADMAP item 4a deletes
func (r *Redirector) clientSession(conn net.Conn, reader *bufio.Reader, writer *bufio.Writer, args []string) {
	if len(args) != 1 || args[0] == "" {
		r.reply(conn, writer, "ERR HELLO wants <player-id>")
		return
	}
	player := args[0]
	if err := r.reply(conn, writer, "OK HELLO"); err != nil {
		return
	}
	for {
		conn.SetReadDeadline(time.Now().Add(idleTimeout))
		verb, args, err := readCommand(reader)
		if err != nil {
			return
		}
		switch verb {
		case "START":
			if len(args) != 1 && len(args) != 3 {
				r.reply(conn, writer, "ERR START wants <uri> [<session> <seq>]")
				return
			}
			uri := args[0]
			addr, ok := pick(player, uri, r.reg.Alive(time.Now()))
			if !ok {
				if err := r.reply(conn, writer, "ERR no nodes"); err != nil {
					return
				}
				continue
			}
			r.redirects.Add(1)
			if err := r.reply(conn, writer, "REDIRECT "+addr); err != nil {
				return
			}
		case "QUIT":
			r.reply(conn, writer, "OK BYE")
			return
		default:
			r.reply(conn, writer, "ERR unknown verb "+verb)
			return
		}
	}
}
