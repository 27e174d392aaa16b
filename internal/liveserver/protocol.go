// Package liveserver is a working wire implementation of the live
// streaming service the paper measured: a TCP server that streams live
// object data to media clients over a minimal MMS-like control protocol,
// plus a client and the record-to-log-entry rendering (RecordEntry).
//
// The discrete-event simulator (package simulate) is how paper-scale
// traces are produced; this package is the complement for small-scale
// end-to-end validation — real sockets, real concurrency, real
// backpressure — so the logging, sessionization and characterization
// pipeline can be exercised against genuinely concurrent network I/O.
// Package loadgen replays workloads against it in compressed time.
//
// # Wire protocol
//
// The control channel is line-oriented text; stream data is length-
// prefixed binary. All lines end in '\n'.
//
//	C: HELLO <player-id>
//	S: OK HELLO
//	C: START <uri> [<session> <seq>]
//	S: OK START <uri>
//	S: DATA <n>        (followed by n raw bytes; repeated)
//	C: STOP            (any time after START)
//	S: DATA <n>        (every frame the pace owed by the STOP and not yet sent)
//	S: END <bytes> <frames>
//	C: QUIT
//	S: OK BYE
//
// Frames are paced at the server's frame interval from OK START, and
// END counts every frame due by the STOP: ⌊elapsed ÷ interval⌋ of them,
// the ones a late tick had not yet sent written just before END. A
// transfer's frames therefore follow how long it ran, not how late the
// server's ticker fired.
//
// The optional session/seq tag on START identifies the workload event
// the transfer realizes (the generator's global session index and the
// transfer's position within it). A tagged transfer is logged with the
// tag, which is what lets a replay check read the server's log as one
// realization (loadgen.Served, wmslog.Realization) and account for
// individual lost events. Untagged STARTs behave exactly as before.
//
// Any protocol violation, inside a transfer or outside one, produces
// "ERR <reason>" and closes the connection; inside a transfer it ends
// the transfer unlogged, as QUIT does there.
package liveserver

import (
	"bufio"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/wmslog"
)

// Protocol limits.
const (
	// MaxLineBytes bounds a control line.
	MaxLineBytes = 512
	// MaxFrameBytes bounds one DATA frame.
	MaxFrameBytes = 64 * 1024
)

// ErrProtocol reports a wire-protocol violation.
var ErrProtocol = errors.New("liveserver: protocol error")

// command is one parsed control line.
type command struct {
	verb    string // HELLO, START, STOP, QUIT
	arg     string // player ID or URI, if any
	session int64  // workload session tag on START, UntaggedSession if absent
	seq     int    // transfer index within the session
}

// UntaggedSession marks a transfer whose START carried no session/seq
// tag.
const UntaggedSession int64 = -1

// parseCommand parses one control line from a client.
func parseCommand(line string) (command, error) {
	line = strings.TrimRight(line, "\r\n")
	if len(line) == 0 {
		return command{}, fmt.Errorf("%w: empty command", ErrProtocol)
	}
	verb, arg, _ := strings.Cut(line, " ")
	switch verb {
	case "HELLO":
		// The player ID goes into the log as c-playerid: refuse what the
		// log's writer would refuse, before a transfer is served for it.
		if _, err := wmslog.MandatoryField(arg); err != nil {
			return command{}, fmt.Errorf("%w: %s needs one player ID: %v", ErrProtocol, verb, err)
		}
		return command{verb: verb, arg: arg, session: UntaggedSession}, nil
	case "START":
		fields := strings.Fields(arg)
		switch len(fields) {
		case 1:
			return command{verb: verb, arg: fields[0], session: UntaggedSession}, nil
		case 3:
			session, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil || session < 0 {
				return command{}, fmt.Errorf("%w: bad session tag %q", ErrProtocol, fields[1])
			}
			seq, err := strconv.Atoi(fields[2])
			if err != nil || seq < 0 {
				return command{}, fmt.Errorf("%w: bad seq tag %q", ErrProtocol, fields[2])
			}
			return command{verb: verb, arg: fields[0], session: session, seq: seq}, nil
		default:
			return command{}, fmt.Errorf("%w: START wants <uri> [<session> <seq>]", ErrProtocol)
		}
	case "STOP", "QUIT":
		if arg != "" {
			return command{}, fmt.Errorf("%w: %s takes no argument", ErrProtocol, verb)
		}
		return command{verb: verb, session: UntaggedSession}, nil
	default:
		return command{}, fmt.Errorf("%w: unknown verb %q", ErrProtocol, verb)
	}
}

// readLine reads one bounded control line. It reads within r's buffer
// (ReadSlice), so a peer that never sends a newline costs one buffer,
// not memory without bound: a line that fills the buffer is refused as
// one over MaxLineBytes is.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull || err == nil && len(line) > MaxLineBytes {
		return "", fmt.Errorf("%w: line exceeds %d bytes", ErrProtocol, MaxLineBytes)
	}
	if err != nil {
		return "", err
	}
	return string(line), nil
}

// parseDataHeader parses a "DATA <n>" server line.
func parseDataHeader(line string) (int, error) {
	line = strings.TrimRight(line, "\r\n")
	rest, ok := strings.CutPrefix(line, "DATA ")
	if !ok {
		return 0, fmt.Errorf("%w: expected DATA header, got %q", ErrProtocol, line)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 || n > MaxFrameBytes {
		return 0, fmt.Errorf("%w: bad DATA length %q", ErrProtocol, rest)
	}
	return n, nil
}

// parseEnd parses an "END <bytes> <frames>" server line.
func parseEnd(line string) (bytes int64, frames int, err error) {
	line = strings.TrimRight(line, "\r\n")
	rest, ok := strings.CutPrefix(line, "END ")
	if !ok {
		return 0, 0, fmt.Errorf("%w: expected END, got %q", ErrProtocol, line)
	}
	parts := strings.Fields(rest)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("%w: bad END %q", ErrProtocol, line)
	}
	bytes, err = strconv.ParseInt(parts[0], 10, 64)
	if err != nil || bytes < 0 {
		return 0, 0, fmt.Errorf("%w: bad END bytes %q", ErrProtocol, parts[0])
	}
	frames, err = strconv.Atoi(parts[1])
	if err != nil || frames < 0 {
		return 0, 0, fmt.Errorf("%w: bad END frames %q", ErrProtocol, parts[1])
	}
	return bytes, frames, nil
}
