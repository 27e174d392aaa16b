package liveserver

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Client is one media player connected to the streaming server.
type Client struct {
	conn   net.Conn
	reader *bufio.Reader // from readers; nil once Close has handed it back
	player string
}

// readers recycles the clients' 64 KB read buffers: a session dials,
// watches a handful of transfers and closes, so a buffer per Dial is
// garbage a few transfers later. A buffer is in the pool only while no
// Client holds it.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64*1024) }}

// release hands the read buffer back; the client reads nothing after.
func (c *Client) release() {
	c.reader.Reset(nil)
	readers.Put(c.reader)
	c.reader = nil
}

// TransferResult summarizes one completed transfer from the client side.
type TransferResult struct {
	URI      string
	Duration time.Duration
	Bytes    int64
	Frames   int
	// StartLatency is the time from sending START to receiving the
	// server's OK START — the request-grant latency a replay harness
	// tracks as its primary responsiveness signal.
	StartLatency time.Duration
}

// Dial connects and performs the HELLO handshake.
func Dial(addr, playerID string) (*Client, error) {
	if playerID == "" || strings.ContainsAny(playerID, " \t\n") {
		return nil, fmt.Errorf("%w: bad player ID %q", ErrProtocol, playerID)
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("liveserver: dial: %w", err)
	}
	c := &Client{conn: conn, reader: readers.Get().(*bufio.Reader), player: playerID}
	c.reader.Reset(conn)
	if err := c.send("HELLO " + playerID); err != nil {
		c.release()
		conn.Close()
		return nil, err
	}
	if err := c.expect("OK HELLO"); err != nil {
		c.release()
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Watch runs one transfer: START the object, receive frames for the given
// wall-clock duration, then STOP and drain to END. The STOP is sent by a
// timer goroutine (net.Conn writes are safe for concurrent use), so the
// read loop never has to poll.
func (c *Client) Watch(uri string, duration time.Duration) (TransferResult, error) {
	return c.WatchTagged(uri, UntaggedSession, 0, duration)
}

// WatchTagged is Watch with a workload tag: the server logs the
// transfer with the (session, seq) identity of the workload event it
// realizes. Pass UntaggedSession to omit the tag.
func (c *Client) WatchTagged(uri string, session int64, seq int, duration time.Duration) (TransferResult, error) {
	res := TransferResult{URI: uri}
	start := "START " + uri
	if session >= 0 {
		start += " " + strconv.FormatInt(session, 10) + " " + strconv.Itoa(seq)
	}
	requested := time.Now()
	if err := c.send(start); err != nil {
		return res, err
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := readLine(c.reader)
	if err != nil {
		return res, err
	}
	if !strings.HasPrefix(line, "OK START ") {
		return res, fmt.Errorf("%w: server said %q", ErrProtocol, strings.TrimSpace(line))
	}
	res.StartLatency = time.Since(requested)

	begin := time.Now()
	stop := time.AfterFunc(duration, func() { _ = c.send("STOP") })
	defer stop.Stop()

	// The whole transfer must finish within the requested duration plus a
	// generous drain allowance.
	c.conn.SetReadDeadline(time.Now().Add(duration + 10*time.Second))
	defer c.conn.SetReadDeadline(time.Time{})

	for {
		line, err := readLine(c.reader)
		if err != nil {
			return res, fmt.Errorf("liveserver: read frame header: %w", err)
		}
		switch {
		case strings.HasPrefix(line, "DATA "):
			n, err := parseDataHeader(line)
			if err != nil {
				return res, err
			}
			// The payload is counted, not kept: skip it in the read
			// buffer. A frame cut short reads as io.ReadFull reports it.
			if got, err := c.reader.Discard(n); err != nil {
				if err == io.EOF && got > 0 {
					err = io.ErrUnexpectedEOF
				}
				return res, fmt.Errorf("liveserver: frame payload: %w", err)
			}
			res.Bytes += int64(n)
			res.Frames++
		case strings.HasPrefix(line, "END "):
			bytes, frames, err := parseEnd(line)
			if err != nil {
				return res, err
			}
			if bytes != res.Bytes || frames != res.Frames {
				return res, fmt.Errorf("%w: server counted %d bytes / %d frames, client saw %d / %d",
					ErrProtocol, bytes, frames, res.Bytes, res.Frames)
			}
			res.Duration = time.Since(begin)
			return res, nil
		case strings.HasPrefix(line, "ERR "):
			return res, fmt.Errorf("%w: server error: %s", ErrProtocol, strings.TrimSpace(line))
		default:
			return res, fmt.Errorf("%w: unexpected line %q", ErrProtocol, strings.TrimSpace(line))
		}
	}
}

// Close sends QUIT and closes the connection. The client is spent: a
// Watch after Close fails on the closed connection.
func (c *Client) Close() error {
	if c.reader == nil {
		return c.conn.Close()
	}
	_ = c.send("QUIT")
	c.conn.SetReadDeadline(time.Now().Add(time.Second))
	_, _ = readLine(c.reader) // best-effort OK BYE
	c.release()
	return c.conn.Close()
}

func (c *Client) send(line string) error {
	c.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.conn.Write([]byte(line + "\n")); err != nil {
		return fmt.Errorf("liveserver: send %q: %w", line, err)
	}
	return nil
}

func (c *Client) expect(want string) error {
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := readLine(c.reader)
	if err != nil {
		return err
	}
	if strings.TrimSpace(line) != want {
		return fmt.Errorf("%w: expected %q, got %q", ErrProtocol, want, strings.TrimSpace(line))
	}
	return nil
}
