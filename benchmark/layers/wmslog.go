package layers

import (
	"io"
	"os"
	"path/filepath"

	"repro/internal/wmslog"
)

// ProbeWmslog times the log codec in both directions: encoding the held
// entries as text and as binary into io.Discard, writing daily text
// files to disk, and re-reading the text and binary renderings.
// (wmslog.sink_busy_share comes from the gen_logs replica in
// pipeline.go, where the sink runs inside the pipeline.)
func ProbeWmslog(fx *Fixture, m Metrics) error {
	reps := fx.Sizes.ProbeReps
	n := len(fx.Entries)
	writeAll := func(w interface{ Write(*wmslog.Entry) error }) error {
		for i := range fx.Entries {
			if err := w.Write(&fx.Entries[i]); err != nil {
				return err
			}
		}
		return nil
	}

	ns, _, err := measure(reps, func() error {
		w := wmslog.NewWriter(io.Discard)
		if err := writeAll(w); err != nil {
			return err
		}
		return w.Flush()
	})
	if err != nil {
		return err
	}
	m.Set("wmslog.encode_text_ns_per_entry", perItem(ns, n), "ns")

	ns, _, err = measure(reps, func() error {
		w := wmslog.NewBinaryWriter(io.Discard)
		if err := writeAll(w); err != nil {
			return err
		}
		return w.Flush()
	})
	if err != nil {
		return err
	}
	m.Set("wmslog.encode_binary_ns_per_entry", perItem(ns, n), "ns")

	writeDaily := func(dir string, binary bool) func() error {
		return func() error {
			dw, err := wmslog.NewDailyWriter(dir)
			if err != nil {
				return err
			}
			dw.Binary = binary
			if err := writeAll(dw); err != nil {
				dw.Close()
				return err
			}
			return dw.Close()
		}
	}
	ns, _, err = measurePrepared(reps, func() error { return os.RemoveAll(fx.TextDir) }, writeDaily(fx.TextDir, false))
	if err != nil {
		return err
	}
	m.Set("wmslog.write_ns_per_entry", perItem(ns, n), "ns")
	binDir := filepath.Join(fx.Dir, "binary")
	if err := os.RemoveAll(binDir); err != nil {
		return err
	}
	if err := writeDaily(binDir, true)(); err != nil {
		return err
	}

	textPaths, err := wmslog.FindLogs(fx.TextDir)
	if err != nil {
		return err
	}
	var textBytes int64
	for _, p := range textPaths {
		st, err := os.Stat(p)
		if err != nil {
			return err
		}
		textBytes += st.Size()
	}
	m.Set("wmslog.text_bytes_per_entry", perItem(float64(textBytes), n), "B")

	ns, mallocs, err := measure(reps, func() error {
		fx.Parsed, _, err = wmslog.ReadFiles(textPaths, true)
		return err
	})
	if err != nil {
		return err
	}
	m.Set("wmslog.parse_text_ns_per_entry", perItem(ns, len(fx.Parsed)), "ns")
	m.Set("wmslog.parse_text_allocs_per_entry", perItem(mallocs, len(fx.Parsed)), "count")

	binPaths, err := wmslog.FindLogs(binDir)
	if err != nil {
		return err
	}
	ns, _, err = measure(reps, func() error {
		_, _, err := wmslog.ReadFiles(binPaths, true)
		return err
	})
	if err != nil {
		return err
	}
	m.Set("wmslog.parse_binary_ns_per_entry", perItem(ns, len(fx.Parsed)), "ns")
	return nil
}
