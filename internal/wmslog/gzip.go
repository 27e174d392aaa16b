package wmslog

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Month-scale production logs are archived compressed. These helpers let
// the parser consume ".log.gz" files transparently and let operators
// compress harvested days in place.

// Open opens a log file for reading, transparently decompressing ".gz"
// files. The returned closer closes both layers. The reader carries
// whatever format the file holds — feed it to Scan, which detects
// text vs binary by magic bytes.
func Open(path string) (io.Reader, io.Closer, error) {
	return openLog(path)
}

// openLog opens a log file for reading, transparently decompressing
// ".gz" files. The returned closer closes both layers.
func openLog(path string) (io.Reader, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wmslog: open %s: %w", path, err)
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, f, nil
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wmslog: gzip %s: %w", path, err)
	}
	return zr, &stackedCloser{inner: zr, outer: f}, nil
}

// Bytes one entry takes on disk, rounded down so EntryHint errs high,
// but by little: a trace build presizes its rows from the hints, so
// what they overshoot is resident memory. On a generated day a
// canonical text line is ~146 bytes, gzip packs it into 26–27, and a
// binary record with its share of the file's dictionary takes 40–44 —
// hints of 1.0–1.2× the entries in each format.
const (
	textBytesPerEntry   = 128
	gzipBytesPerEntry   = 24
	binaryBytesPerEntry = 38
)

// EntryHint estimates, from its size and format alone, how many entries
// the log file at path holds — a capacity for whatever collects them,
// meant to be slightly high rather than exact. An unreadable file hints
// 0; opening it for real reports the error.
func EntryHint(path string) int {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0
	}
	per := int64(textBytesPerEntry)
	magic := make([]byte, len(binaryMagic))
	if n, _ := io.ReadFull(f, magic); strings.HasSuffix(path, ".gz") {
		per = gzipBytesPerEntry
	} else if bytes.Equal(magic[:n], binaryMagic) {
		per = binaryBytesPerEntry
	}
	return int(st.Size()/per) + 1
}

type stackedCloser struct {
	inner io.Closer
	outer io.Closer
}

func (s *stackedCloser) Close() error {
	err := s.inner.Close()
	if cerr := s.outer.Close(); err == nil {
		err = cerr
	}
	return err
}

// CompressFile gzips one log file to "<path>.gz" and removes the
// original — the archival step after a daily harvest.
//
//lsm:keep -- the tests' gzip fixtures: wmslog, trace, core, cmd/lsmchar, cmd/lsmlog
func CompressFile(path string) (string, error) {
	in, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("wmslog: open %s: %w", path, err)
	}
	defer in.Close()

	outPath := path + ".gz"
	out, err := os.Create(outPath)
	if err != nil {
		return "", fmt.Errorf("wmslog: create %s: %w", outPath, err)
	}
	zw := gzip.NewWriter(out)
	if _, err := io.Copy(zw, in); err != nil {
		zw.Close()
		out.Close()
		os.Remove(outPath)
		return "", fmt.Errorf("wmslog: compress %s: %w", path, err)
	}
	if err := zw.Close(); err != nil {
		out.Close()
		os.Remove(outPath)
		return "", err
	}
	if err := out.Close(); err != nil {
		os.Remove(outPath)
		return "", err
	}
	if err := os.Remove(path); err != nil {
		return "", fmt.Errorf("wmslog: remove original %s: %w", path, err)
	}
	return outPath, nil
}

// CheckOutput refuses an output path that names one of the logs a
// command is about to read — the same file under any name — before
// anything creates it: os.Create truncates the file, and the scan would
// then read nothing. An output that does not exist yet names none.
func CheckOutput(out string, inputs []string) error {
	ofi, err := os.Stat(out)
	if err != nil {
		return nil
	}
	for _, in := range inputs {
		if fi, err := os.Stat(in); err == nil && os.SameFile(ofi, fi) {
			return fmt.Errorf("wmslog: output %s is the input %s", out, in)
		}
	}
	return nil
}

// FindLogs globs a directory for daily log files, compressed or not,
// returning them in name (= date) order. A day kept both ways — the
// harvested original beside its ".gz" copy — is an error that names the
// day: read together, the two would count every transfer of that day
// twice.
func FindLogs(dir string) ([]string, error) {
	plain, err := filepath.Glob(filepath.Join(dir, "wms-*.log"))
	if err != nil {
		return nil, err
	}
	gz, err := filepath.Glob(filepath.Join(dir, "wms-*.log.gz"))
	if err != nil {
		return nil, err
	}
	for _, path := range gz {
		if _, twice := slices.BinarySearch(plain, strings.TrimSuffix(path, ".gz")); twice {
			day := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "wms-"), ".log.gz")
			return nil, fmt.Errorf("wmslog: day %s is in %s twice, as %s and %s: keep one", day, dir, filepath.Base(path[:len(path)-3]), filepath.Base(path))
		}
	}
	paths := append(plain, gz...)
	slices.Sort(paths)
	return paths, nil
}
