// Package prof wires the standard Go profilers into the pipeline
// commands: every cmd that generates, serves, replays or characterizes
// at scale (lsmgen, lsmload, lsmserve, lsmcal, lsmchar) registers
// -cpuprofile, -memprofile and -trace flags through one Profiles value,
// so a perf investigation is always one flag away from a pprof/trace
// artifact (`make profile` is the canonical invocation; CI uploads its
// output on demand).
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Profiles holds the profiling flag values and open output files.
type Profiles struct {
	CPUPath   string
	MemPath   string
	TracePath string

	cpuFile   *os.File
	traceFile *os.File
}

// RegisterFlags registers the three profiling flags on fs (use
// flag.CommandLine for a cmd's default flag set).
func (p *Profiles) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUPath, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.MemPath, "memprofile", "", "write an allocation profile to this file at exit")
	fs.StringVar(&p.TracePath, "trace", "", "write a runtime execution trace to this file")
}

// Start begins CPU profiling and execution tracing for every
// registered path. On error it stops whatever it already started.
func (p *Profiles) Start() error {
	if p.CPUPath != "" {
		f, err := os.Create(p.CPUPath)
		if err != nil {
			return fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("prof: start cpu profile: %w", err)
		}
		p.cpuFile = f
	}
	if p.TracePath != "" {
		f, err := os.Create(p.TracePath)
		if err != nil {
			p.stopCPU()
			return fmt.Errorf("prof: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			p.stopCPU()
			return fmt.Errorf("prof: start trace: %w", err)
		}
		p.traceFile = f
	}
	return nil
}

// Stop flushes and closes every active profile: it stops the CPU
// profile and the trace, and writes the allocation profile (after a
// GC, so the heap numbers are settled). Safe to call when nothing was
// started; call it exactly once, after the measured work.
func (p *Profiles) Stop() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	keep(p.stopCPU())
	if p.traceFile != nil {
		trace.Stop()
		keep(p.traceFile.Close())
		p.traceFile = nil
	}
	if p.MemPath != "" {
		f, err := os.Create(p.MemPath)
		if err != nil {
			keep(err)
		} else {
			runtime.GC()
			keep(pprof.Lookup("allocs").WriteTo(f, 0))
			keep(f.Close())
		}
	}
	if firstErr != nil {
		return fmt.Errorf("prof: %w", firstErr)
	}
	return nil
}

func (p *Profiles) stopCPU() error {
	if p.cpuFile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := p.cpuFile.Close()
	p.cpuFile = nil
	return err
}
