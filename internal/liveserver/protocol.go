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
//	S: END <bytes> <frames>
//	C: QUIT
//	S: OK BYE
//
// The optional session/seq tag on START identifies the workload event
// the transfer realizes (the generator's global session index and the
// transfer's position within it). A tagged transfer is logged with the
// tag, which is what makes per-node fleet logs mergeable into one
// deterministic realization (wmslog.MergeFiles) and lets a replay
// harness account for individual lost events under failover. Untagged
// STARTs behave exactly as before.
//
// Any protocol violation produces "ERR <reason>" and closes the
// connection.
package liveserver

import (
	"bufio"
	"errors"
	"fmt"
	"strconv"
	"strings"
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
		if arg == "" || strings.ContainsAny(arg, " \t") {
			return command{}, fmt.Errorf("%w: %s needs one argument", ErrProtocol, verb)
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

// readLine reads one bounded control line.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	if len(line) > MaxLineBytes {
		return "", fmt.Errorf("%w: line exceeds %d bytes", ErrProtocol, MaxLineBytes)
	}
	return line, nil
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
