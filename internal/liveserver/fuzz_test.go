package liveserver

import (
	"errors"
	"strconv"
	"testing"

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
