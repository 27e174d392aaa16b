// Command lsmlog is the wmslog archive toolbox.
//
// convert re-encodes a log between the canonical text format and the
// framed binary fast path, losslessly in both directions:
//
//	lsmlog convert -to binary harvested.log harvested.bin
//	lsmlog convert -to text harvested.bin roundtrip.log
//
// The input format is auto-detected by magic bytes (never by flag or
// extension), gzip-compressed inputs decode transparently, and an
// output path ending in ".gz" is gzip-compressed. Converting text →
// binary → text reproduces the canonical file byte for byte, so a
// binary archive detour preserves every md5 and realization-digest
// contract. Conversion streams entry by entry: month-scale archives
// convert in O(1) memory.
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/wmslog"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "convert":
		err = runConvert(os.Args[2:], os.Stdout)
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
		return
	default:
		fmt.Fprintf(os.Stderr, "lsmlog: unknown subcommand %q\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmlog:", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: lsmlog convert -to text|binary <in> <out>")
}

// runConvert streams <in> (format auto-detected, gz transparent) into
// <out> in the requested format.
func runConvert(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	to := fs.String("to", "", "target format: text or binary (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *to != "text" && *to != "binary" {
		return fmt.Errorf("convert: -to %q: want text or binary", *to)
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("convert: want <in> <out>, got %d arguments", fs.NArg())
	}
	inPath, outPath := fs.Arg(0), fs.Arg(1)
	if err := wmslog.CheckOutput(outPath, []string{inPath}); err != nil {
		return err
	}

	r, closer, err := wmslog.Open(inPath)
	if err != nil {
		return err
	}
	defer closer.Close()

	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	var sink io.Writer = out
	var zw *gzip.Writer
	if strings.HasSuffix(outPath, ".gz") {
		zw = gzip.NewWriter(out)
		sink = zw
	}
	var ew wmslog.EntryWriter
	if *to == "binary" {
		ew = wmslog.NewBinaryWriter(sink)
	} else {
		ew = wmslog.NewWriter(sink)
	}

	fail := func(err error) error {
		out.Close()
		os.Remove(outPath)
		return err
	}
	st, err := wmslog.Scan(r, false, wmslog.NewInterner(), ew.Write)
	if err != nil {
		return fail(fmt.Errorf("convert %s: %w", inPath, err))
	}
	if err := ew.Flush(); err != nil {
		return fail(err)
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			return fail(err)
		}
	}
	if err := out.Close(); err != nil {
		os.Remove(outPath)
		return err
	}
	fmt.Fprintf(w, "converted %d entries (%d binary in) from %s to %s (%s)\n",
		st.Entries, st.Binary, inPath, outPath, *to)
	return nil
}
