package trace_test

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sessions"
	"repro/internal/trace"
)

func init() {
	trace.ObserveLogsCheck = func(t *testing.T, dir string, days int, want *trace.Trace, wantErr error) {
		t.Helper()
		for _, figs := range []*core.FigureOptions{nil, {Seed: 3}} {
			got, _, err := core.ObserveLogs(dir, days, sessions.DefaultTimeout, figs, io.Discard)
			var ref *core.Characterization
			refErr := wantErr
			if refErr == nil {
				if figs == nil {
					ref, refErr = core.Observe(want, sessions.DefaultTimeout)
				} else {
					ref, refErr = core.Characterize(want, sessions.DefaultTimeout, nil, figs.Seed)
				}
			}
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("figures %v: ObserveLogs error %v, want %v", figs != nil, err, refErr)
			}
			if err == nil && dumpBits(got) != dumpBits(ref) {
				t.Fatalf("figures %v: ObserveLogs differs from the trace's characterization:\n got %s\nwant %s", figs != nil, dumpBits(got), dumpBits(ref))
			}
		}
	}
}

// dumpBits renders every value reachable from v, exported or not, with
// floats as their bits, so that two values render alike exactly when
// they are equal field by field, NaNs included. sync.Once fields record
// whether an on-demand series was asked for, not a result, and are
// left out.
func dumpBits(v any) string {
	var b strings.Builder
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				b.WriteString("nil ")
				return
			}
			walk(v.Elem())
		case reflect.Struct:
			if v.Type() == reflect.TypeOf(sync.Once{}) {
				return
			}
			b.WriteString("{")
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
			b.WriteString("} ")
		case reflect.Slice, reflect.Array:
			fmt.Fprintf(&b, "[%d: ", v.Len())
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
			b.WriteString("] ")
		case reflect.Map:
			keys := v.MapKeys()
			sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
			fmt.Fprintf(&b, "map[%d: ", len(keys))
			for _, k := range keys {
				fmt.Fprintf(&b, "%q:", fmt.Sprint(k))
				walk(v.MapIndex(k))
			}
			b.WriteString("] ")
		case reflect.Float32, reflect.Float64:
			fmt.Fprintf(&b, "%x ", math.Float64bits(v.Float()))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fmt.Fprintf(&b, "%d ", v.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fmt.Fprintf(&b, "%d ", v.Uint())
		case reflect.String:
			fmt.Fprintf(&b, "%q ", v.String())
		case reflect.Bool:
			fmt.Fprintf(&b, "%t ", v.Bool())
		default:
			panic("dumpBits: unhandled kind " + v.Kind().String())
		}
	}
	walk(reflect.ValueOf(v))
	return b.String()
}
