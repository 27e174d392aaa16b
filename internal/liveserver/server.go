package liveserver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Preformatted control replies: the fixed lines of the protocol are
// written as shared byte slices, so the reply path performs no
// per-message formatting or allocation. Dynamic replies are appended
// into a per-connection scratch buffer (see conn scratch in handle).
var (
	replyOKHello = []byte("OK HELLO\n")
	replyOKBye   = []byte("OK BYE\n")
	replyErrBusy = []byte("ERR busy\n")
)

// TransferRecord is what the server logs when a transfer ends — the
// material a wmslog.Entry is built from in the replay pipeline.
type TransferRecord struct {
	PlayerID string
	RemoteIP string
	URI      string
	Start    time.Time
	End      time.Time
	Bytes    int64
	Frames   int
	// Session and Seq echo the workload tag the client attached to
	// START (Session is UntaggedSession when the START carried none).
	Session int64
	Seq     int
}

// ServerConfig parameterizes the streaming server.
type ServerConfig struct {
	// FrameBytes is the payload size of one DATA frame.
	FrameBytes int
	// FrameInterval is the wall-clock pacing between frames; together
	// with FrameBytes it sets the stream rate.
	FrameInterval time.Duration
	// MaxConns bounds concurrently served connections; further accepts
	// are answered with "ERR busy" and closed immediately (the paper's
	// point: live viewers cannot be deferred, so this is capacity
	// exhaustion made visible, never a hang).
	MaxConns int
	// Sink receives a record for every completed transfer. May be nil.
	Sink func(TransferRecord)

	// WriteTimeout bounds every control and frame write. A client that
	// stops reading (a stalled player, a dead NAT entry) trips the
	// deadline and is disconnected instead of pinning a handler and its
	// connection slot forever. Zero disables the deadline.
	WriteTimeout time.Duration
	// IdleTimeout bounds the silence the server tolerates while waiting
	// for the next control command outside a transfer — half-open
	// connections release their slot instead of holding capacity. It
	// does not apply mid-transfer, where the client is legitimately
	// silent until STOP. Zero disables the deadline.
	IdleTimeout time.Duration
}

// DefaultServerConfig streams ~110 kbit/s in 1,375-byte frames.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		FrameBytes:    1375,
		FrameInterval: 100 * time.Millisecond,
		MaxConns:      256,
		WriteTimeout:  10 * time.Second,
		IdleTimeout:   60 * time.Second,
	}
}

// Server is the live streaming media server.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
	active   atomic.Int64 // concurrently streaming transfers
	served   atomic.Int64 // completed transfers
	refused  atomic.Int64 // connections refused at MaxConns
	accepted atomic.Int64 // connections admitted past MaxConns gating

	payload    []byte // shared frame payload
	dataHeader []byte // preformatted "DATA <n>\n" for the fixed frame size
}

// Serve starts a server on addr ("127.0.0.1:0" for an ephemeral port).
func Serve(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.FrameBytes <= 0 || cfg.FrameBytes > MaxFrameBytes {
		return nil, fmt.Errorf("%w: frame bytes %d", ErrProtocol, cfg.FrameBytes)
	}
	if cfg.FrameInterval <= 0 {
		return nil, fmt.Errorf("%w: frame interval %v", ErrProtocol, cfg.FrameInterval)
	}
	if cfg.MaxConns < 1 {
		return nil, fmt.Errorf("%w: max conns %d", ErrProtocol, cfg.MaxConns)
	}
	if cfg.WriteTimeout < 0 || cfg.IdleTimeout < 0 {
		return nil, fmt.Errorf("%w: negative timeout", ErrProtocol)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("liveserver: listen: %w", err)
	}
	s := &Server{
		cfg:        cfg,
		ln:         ln,
		conns:      make(map[net.Conn]struct{}),
		payload:    make([]byte, cfg.FrameBytes),
		dataHeader: []byte(fmt.Sprintf("DATA %d\n", cfg.FrameBytes)),
	}
	for i := range s.payload {
		s.payload[i] = byte('A' + i%26)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ActiveTransfers returns the number of currently streaming transfers.
func (s *Server) ActiveTransfers() int64 { return s.active.Load() }

// ServedTransfers returns the number of completed transfers.
func (s *Server) ServedTransfers() int64 { return s.served.Load() }

// RefusedConns returns the number of connections refused at capacity.
func (s *Server) RefusedConns() int64 { return s.refused.Load() }

// AcceptedConns returns the number of connections admitted (lifetime
// total, not currently open) — with RefusedConns, the accept-loop's full
// accounting, and what lets a replay harness verify connection pooling.
func (s *Server) AcceptedConns() int64 { return s.accepted.Load() }

// OpenConns returns the number of currently open connections (streaming
// or idle between transfers) — the gauge complement of the lifetime
// AcceptedConns counter, for the /metrics surface.
func (s *Server) OpenConns() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.conns))
}

// Close stops accepting, closes every connection, and waits for the
// handler goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			s.refused.Add(1)
			// Refuse visibly and asynchronously: the client gets "ERR
			// busy" instead of a silent close, and a peer that has
			// stalled its receive window cannot stall the accept loop.
			go refuse(conn)
			continue
		}
		s.accepted.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.conns) >= s.cfg.MaxConns {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// refuse tells a connection beyond MaxConns why it is being dropped.
// Best effort under a short deadline; the connection closes either way.
func refuse(conn net.Conn) {
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	conn.Write(replyErrBusy)
	conn.Close()
}

// armIdle applies the idle control-command deadline, disarmIdle clears
// it for the duration of a transfer (reads blocked in the reader
// goroutine pick up deadline changes immediately).
func (s *Server) armIdle(conn net.Conn) {
	if s.cfg.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	}
}

func (s *Server) disarmIdle(conn net.Conn) {
	if s.cfg.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Time{})
	}
}

// armWrite applies the slow-reader write deadline before a write burst.
func (s *Server) armWrite(conn net.Conn) {
	if s.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
}

// inbound is one control-channel read: a parsed command or the error
// that ended the read loop.
type inbound struct {
	cmd command
	err error
}

// writers recycles the handlers' 32 KB write buffers across
// connections; one is in the pool only while no handler holds it.
var writers = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32*1024) }}

// readBufferBytes is a handler's control-line read buffer, the most
// it holds of a line: a line that fills it is refused (readLine).
const readBufferBytes = 4096

// handle runs one connection's control state machine. Control lines are
// read by a dedicated goroutine and forwarded over a channel so the
// streaming loop can notice STOP between frames; the done channel keeps
// the reader from leaking when handle returns first (the reader could
// otherwise block forever on a channel send after handle stopped
// receiving).
func (s *Server) handle(conn net.Conn) {
	reader := bufio.NewReaderSize(conn, readBufferBytes)
	// Only this goroutine writes, so the write buffer can go back the
	// moment it returns. The read buffer cannot: its goroutine may
	// still be inside a read then.
	writer := writers.Get().(*bufio.Writer)
	writer.Reset(conn)
	defer func() {
		writer.Reset(nil)
		writers.Put(writer)
	}()

	in := make(chan inbound)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(in)
		for {
			line, err := readLine(reader)
			var msg inbound
			if err != nil {
				msg = inbound{err: err}
			} else {
				cmd, perr := parseCommand(line)
				msg = inbound{cmd: cmd, err: perr}
			}
			select {
			case in <- msg:
			case <-done:
				return
			}
			if msg.err != nil {
				return
			}
		}
	}()

	// scratch holds every dynamic reply this connection ever formats —
	// ERR reasons, OK START, END — appended with strconv, never fmt,
	// so the control path allocates nothing per message.
	scratch := make([]byte, 0, 128)

	// sendErr renders "ERR <reason><detail>\n" through the appended-
	// bytes path; every error reply, protocol or state-machine, goes
	// through here so error handling is alloc-free and always newline-
	// terminated. detail is usually empty — it exists so callers can
	// attach a client-supplied argument without concatenating strings.
	sendErr := func(reason, detail string) {
		s.armWrite(conn)
		scratch = append(append(append(append(scratch[:0], "ERR "...), reason...), detail...), '\n')
		writer.Write(scratch)
		writer.Flush()
	}

	var playerID string
	remoteIP := remoteIPOf(conn)
	for {
		s.armIdle(conn)
		msg, ok := <-in
		if !ok {
			return
		}
		if msg.err != nil {
			// Malformed command lines get a reason before the close;
			// read errors (EOF, idle timeout) just end the connection.
			if errors.Is(msg.err, ErrProtocol) {
				sendErr(trimErr(msg.err), "")
			}
			return
		}
		switch msg.cmd.verb {
		case "HELLO":
			if playerID != "" {
				sendErr("duplicate HELLO", "")
				return
			}
			playerID = msg.cmd.arg
			s.armWrite(conn)
			writer.Write(replyOKHello)
			if err := writer.Flush(); err != nil {
				return
			}
		case "START":
			if playerID == "" {
				sendErr("HELLO required before START", "")
				return
			}
			if !validObject(msg.cmd.arg) {
				sendErr("unknown object ", msg.cmd.arg)
				return
			}
			s.disarmIdle(conn)
			err := s.stream(conn, writer, in, &scratch, playerID, remoteIP, msg.cmd)
			if err != nil {
				// A protocol violation inside the transfer gets its
				// reason before the close, as one outside it does.
				if errors.Is(err, ErrProtocol) {
					sendErr(trimErr(err), "")
				}
				return
			}
		case "STOP":
			sendErr("STOP without active transfer", "")
			return
		case "QUIT":
			s.armWrite(conn)
			writer.Write(replyOKBye)
			writer.Flush()
			return
		}
	}
}

// trimErr renders an error for the wire without the package prefix.
func trimErr(err error) string {
	msg := err.Error()
	if cut, ok := strings.CutPrefix(msg, ErrProtocol.Error()+": "); ok {
		return cut
	}
	return msg
}

// stream serves one transfer: frames at the configured pace until the
// client sends STOP (or disconnects). A ticker paces the frames; on STOP
// the frames the pace owes and a late tick has not sent go out in the
// same flush as END, so END counts ⌊elapsed ÷ FrameInterval⌋ frames
// however late the ticker ran. Every write burst runs under the
// configured write deadline, so a reader that has stopped draining its
// socket is disconnected after WriteTimeout instead of blocking the
// handler on a full send buffer; no server lock is ever held across the
// socket I/O (the only shared state touched here is atomic counters).
//
// The data path is allocation-free: the "DATA <n>" header is
// preformatted once per server (the frame size is fixed), the header
// and payload are batched into the bufio writer and flushed as one
// burst per frame, and the END reply is appended into the connection's
// scratch buffer. A protocol violation is returned for handle to
// answer with ERR.
//
//lsm:hotpath
func (s *Server) stream(conn net.Conn, writer *bufio.Writer, in <-chan inbound, scratch *[]byte, playerID, remoteIP string, start0 command) error {
	uri := start0.arg
	// The pace runs from before OK START goes out, so a client that
	// times its watch from OK START never stops ahead of a frame due.
	start := time.Now()
	s.armWrite(conn)
	*scratch = append(append(append((*scratch)[:0], "OK START "...), uri...), '\n')
	writer.Write(*scratch)
	if err := writer.Flush(); err != nil {
		return err
	}
	s.active.Add(1)
	defer s.active.Add(-1)

	var sent int64
	var frames int
	ticker := time.NewTicker(s.cfg.FrameInterval)
	defer ticker.Stop()
	for {
		select {
		case msg, ok := <-in:
			if !ok {
				return io.EOF // client went away mid-stream
			}
			if msg.err != nil {
				return msg.err // a read error, or a malformed line handle answers with ERR
			}
			switch msg.cmd.verb {
			case "STOP":
				s.armWrite(conn)
				// The pace owes a frame for every interval elapsed; a
				// late or dropped tick has not sent them all yet.
				for due := int(time.Since(start) / s.cfg.FrameInterval); frames < due; frames++ {
					writer.Write(s.dataHeader)
					writer.Write(s.payload)
					sent += int64(len(s.payload))
				}
				b := append((*scratch)[:0], "END "...)
				b = strconv.AppendInt(b, sent, 10)
				b = append(b, ' ')
				b = strconv.AppendInt(b, int64(frames), 10)
				*scratch = append(b, '\n')
				writer.Write(*scratch)
				if err := writer.Flush(); err != nil {
					return err
				}
				s.served.Add(1)
				s.emit(playerID, remoteIP, uri, start, sent, frames, start0.session, start0.seq)
				return nil
			case "QUIT":
				return io.EOF
			default: // handle answers with ERR
				return fmt.Errorf("%w: %s during transfer", ErrProtocol, msg.cmd.verb) //lsm:alloc -- teardown path: runs once per dead connection, never per frame
			}
		case <-ticker.C:
			s.armWrite(conn)
			writer.Write(s.dataHeader)
			if _, err := writer.Write(s.payload); err != nil {
				return err
			}
			if err := writer.Flush(); err != nil {
				return err
			}
			sent += int64(len(s.payload))
			frames++
		}
	}
}

func (s *Server) emit(playerID, remoteIP, uri string, start time.Time, bytes int64, frames int, session int64, seq int) {
	if s.cfg.Sink == nil {
		return
	}
	s.cfg.Sink(TransferRecord{
		PlayerID: playerID,
		RemoteIP: remoteIP,
		URI:      uri,
		Start:    start,
		End:      time.Now(),
		Bytes:    bytes,
		Frames:   frames,
		Session:  session,
		Seq:      seq,
	})
}

// objects are the live-object URIs the server streams: the paper's two
// feeds (Table 1), named as the simulator names them.
var objects = []string{"/live/feed1", "/live/feed2"}

func validObject(uri string) bool {
	return slices.Contains(objects, uri)
}

func remoteIPOf(conn net.Conn) string {
	addr := conn.RemoteAddr().String()
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	if i := strings.LastIndexByte(addr, ':'); i > 0 {
		return addr[:i]
	}
	return addr
}
