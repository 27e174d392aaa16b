package liveserver

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strconv"
	"testing"
	"time"

	"repro/internal/wmslog"
)

// renderCommand writes c back in its wire form, as a client sends it.
func renderCommand(c command) string {
	switch {
	case c.verb == "START" && c.session != UntaggedSession:
		return "START " + c.arg + " " + strconv.FormatInt(c.session, 10) + " " + strconv.Itoa(c.seq) + "\n"
	case c.arg != "":
		return c.verb + " " + c.arg + "\n"
	default:
		return c.verb + "\n"
	}
}

// FuzzParseCommand: any control line is a command or an error wrapping
// ErrProtocol, never a panic; an accepted HELLO names a player ID the
// log's writer takes (wmslog.MandatoryField), so no served transfer is
// logged under a name the log cannot read back; and an accepted
// command, rendered back to its wire form, parses to the same command.
func FuzzParseCommand(f *testing.F) {
	for _, line := range []string{
		"HELLO player-0000001\n", "HELLO p\rx\n", "HELLO  \n", "HELLO\n", "HELLO a b\n",
		"START /live/feed1\n", "START /live/feed1 7 2\r\n", "START\t/live/feed2  +3 04\n",
		"START /live/feed1 -1 0\n", "START a b\n", "START\n",
		"STOP\n", "QUIT\n", "STOP now\n", "", "\n", "\r\n", "BOGUS\n",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		cmd, err := parseCommand(line)
		if err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("parseCommand(%q): %v does not wrap ErrProtocol", line, err)
			}
			return
		}
		if cmd.verb == "HELLO" {
			if _, err := wmslog.MandatoryField(cmd.arg); err != nil {
				t.Fatalf("parseCommand(%q) accepted a player ID the log refuses: %v", line, err)
			}
		}
		wire := renderCommand(cmd)
		again, err := parseCommand(wire)
		if err != nil || again != cmd {
			t.Fatalf("parseCommand(%q) = %+v; rendered %q parses to %+v, %v", line, cmd, wire, again, err)
		}
	})
}

// expectReplies is the reply sequence a connection's handler owes a
// client that sent in and keeps its end open, DATA frames left out and
// each END line as "END": the handler's state machine run over the
// complete lines of in, each parsed by parseCommand. A malformed line
// is answered with ERR and the close, inside a transfer or outside, and
// so is an unterminated tail that fills the handler's read buffer.
func expectReplies(in []byte) []string {
	var out []string
	hello, streaming := false, false
	tooLong := "ERR line exceeds " + strconv.Itoa(MaxLineBytes) + " bytes"
	for {
		i := bytes.IndexByte(in, '\n')
		if i < 0 {
			if len(in) >= readBufferBytes {
				return append(out, tooLong)
			}
			return out
		}
		line := string(in[:i+1])
		in = in[i+1:]
		cmd, err := parseCommand(line)
		switch {
		case len(line) > MaxLineBytes:
			return append(out, tooLong)
		case err != nil:
			return append(out, "ERR "+trimErr(err))
		case streaming && cmd.verb == "STOP":
			streaming = false
			out = append(out, "END")
		case streaming && cmd.verb == "QUIT":
			return out
		case streaming:
			return append(out, "ERR "+cmd.verb+" during transfer")
		case cmd.verb == "HELLO" && hello:
			return append(out, "ERR duplicate HELLO")
		case cmd.verb == "HELLO":
			hello = true
			out = append(out, "OK HELLO")
		case cmd.verb == "START" && !hello:
			return append(out, "ERR HELLO required before START")
		case cmd.verb == "START" && !validObject(cmd.arg):
			return append(out, "ERR unknown object "+cmd.arg)
		case cmd.verb == "START":
			streaming = true
			out = append(out, "OK START "+cmd.arg)
		case cmd.verb == "STOP":
			return append(out, "ERR STOP without active transfer")
		default: // QUIT
			return append(out, "OK BYE")
		}
	}
}

// FuzzHandleConn feeds arbitrary client bytes into one connection's
// handler over net.Pipe. The handler never panics, and every line it
// writes is a reply the protocol defines, in expectReplies' order:
// ERR <reason> for anything malformed, DATA frames of the configured
// size only inside a transfer, and END counting exactly the frames
// sent. The first input byte picks how the client leaves: it sends
// QUIT and reads every reply (the handler ends on its own, by QUIT, an
// error or the idle timeout), or it closes its end right after its
// last byte, and then the replies read are a prefix of the owed ones.
// Either way the handler returns within handleBound of the client's
// last act.
func FuzzHandleConn(f *testing.F) {
	for _, in := range []string{
		"HELLO p1\nSTART /live/feed1 3 4\nSTOP\n",
		"HELLO p1\nSTART /live/feed2\nSTOP\nSTART /live/feed1\nSTOP\nQUIT\n",
		"HELLO p1\nSTART /live/feed1\n",
		"HELLO p1\nSTART /live/feed1\nHELLO p2\n",
		"HELLO p1\nSTART /live/feed1\n\x00garbage\n",
		"HELLO p1\nHELLO p1\n", "START /live/feed1\n", "HELLO p1\nSTART /bogus\n",
		"HELLO p1\nSTOP\n", "BOGUS\n", "\n", "HELLO p\x00\n", "HELLO p1\r\nQUI",
		"HELLO " + string(bytes.Repeat([]byte("x"), MaxLineBytes)) + "\n",
		"HELLO p1\nSTART /live/feed1\n" + string(bytes.Repeat([]byte("x"), readBufferBytes+1)),
		"\xff\xfe\x00\x01", "",
	} {
		f.Add(byte(0), []byte(in))
		f.Add(byte(1), []byte(in))
	}
	const frameBytes = 16
	f.Fuzz(func(t *testing.T, mode byte, in []byte) {
		s := &Server{
			cfg: ServerConfig{
				FrameBytes: frameBytes, FrameInterval: time.Millisecond, MaxConns: 1,
				WriteTimeout: time.Second, IdleTimeout: 50 * time.Millisecond,
			},
			conns:      make(map[net.Conn]struct{}),
			payload:    make([]byte, frameBytes),
			dataHeader: []byte("DATA " + strconv.Itoa(frameBytes) + "\n"),
		}
		client, server := net.Pipe()
		handled := make(chan struct{})
		go func() {
			defer close(handled)
			defer server.Close()
			s.handle(server)
		}()
		replies := make(chan []byte, 1)
		go func() {
			b, _ := io.ReadAll(client)
			replies <- b
		}()
		closing := mode&1 == 1
		if !closing {
			in = append(in[:len(in):len(in)], "QUIT\n"...)
		}
		client.Write(in) // fails once the handler has closed its end
		if closing {
			client.Close()
		}
		select {
		case <-handled:
		case <-time.After(handleBound):
			t.Fatalf("the handler had not returned %v after the client's last act", handleBound)
		}
		client.Close()
		got := <-replies

		want := expectReplies(in)
		frames := -1 // DATA frames since OK START; -1 outside a transfer
		k := 0
		for len(got) > 0 {
			i := bytes.IndexByte(got, '\n')
			if i < 0 {
				if closing {
					break // the close cut the last reply short
				}
				t.Fatalf("reply %q has no newline", got)
			}
			line := string(got[:i])
			got = got[i+1:]
			if n, err := parseDataHeader(line); err == nil {
				if frames < 0 || n != frameBytes || len(got) < n {
					if closing && frames >= 0 && len(got) < n {
						break
					}
					t.Fatalf("DATA %d outside a transfer or short (%d bytes left)", n, len(got))
				}
				frames++
				got = got[n:]
				continue
			}
			if k == len(want) {
				t.Fatalf("reply %q past the owed replies %q", line, want)
			}
			switch w := want[k]; {
			case w == "END":
				sent, n, err := parseEnd(line)
				if err != nil || n != frames || sent != int64(frames)*frameBytes {
					t.Fatalf("reply %q after %d frames (%v)", line, frames, err)
				}
				frames = -1
			case line != w:
				t.Fatalf("reply %d is %q, owed %q (all owed: %q)", k, line, w, want)
			case len(w) > 9 && w[:9] == "OK START ":
				frames = 0
			}
			k++
		}
		if !closing && k != len(want) {
			t.Fatalf("replies end after %d of the owed %q", k, want)
		}
	})
}

// handleBound is how long a connection's handler may take to return
// once its client has closed, sent QUIT or gone idle.
const handleBound = time.Second
