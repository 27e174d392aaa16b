package gismo

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/rate"
)

// FuzzLoadModel feeds arbitrary bytes to LoadModel, the strict decoder a
// user's spec goes through: it never panics, and a spec it accepts saves
// to a form that re-loads to the same model and re-saves byte for byte.
// The seeds are specs as lsmcal -o writes them (Save's output: the
// default model, one with a fitted profile, lsmcal's golden twin spec)
// and refusals a user makes: an unknown field at the top and inside a
// law, trailing data after the object, a truncated document, a bad
// profile and values Validate refuses.
func FuzzLoadModel(f *testing.F) {
	saved := func(m Model) []byte {
		path := filepath.Join(f.TempDir(), "spec.json")
		if err := m.Save(path); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	def := saved(Default())
	small := Default()
	var err error
	small.Horizon, small.NumClients, small.BaseArrivalRate = 172800, 233, 0.001626157407407404
	small.Interest.N = 233
	var hourly [24]float64
	for h := range hourly {
		hourly[h] = float64(h%7) / 3
	}
	if small.Profile, err = rate.New(small.BaseArrivalRate, hourly, [7]float64{1.1672597864768683, 0.8327402135231317, 1, 1, 1, 1, 1}, 0); err != nil {
		f.Fatal(err)
	}
	fitted := saved(small)
	golden, err := os.ReadFile(filepath.Join("..", "..", "cmd", "lsmcal", "testdata", "run_twin.spec.golden"))
	if err != nil {
		f.Fatal(err)
	}
	// Each refusal is checked to be one, so a seed that stops naming what
	// it says it breaks fails here rather than fuzzing nothing.
	load := func(data []byte) error {
		path := filepath.Join(f.TempDir(), "seed.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			f.Fatal(err)
		}
		_, err := LoadModel(path)
		return err
	}
	var refused [][]byte
	for _, spec := range [][]byte{def, fitted, golden} {
		if err := load(spec); err != nil {
			f.Fatalf("a saved spec is refused: %v", err)
		}
		f.Add(spec)
		refused = append(refused,
			bytes.Replace(spec, []byte(`"num_objects"`), []byte(`"num_feeds": 2, "num_objects"`), 1),
			bytes.Replace(spec, []byte(`"sigma"`), []byte(`"sigma2": 1, "sigma"`), 1),
			append(bytes.Clone(spec), "{}"...),
			append(bytes.Clone(spec), "x"...),
			spec[:len(spec)/2],
			bytes.Replace(spec, []byte(`"num_clients": `), []byte(`"num_clients": -`), 1))
	}
	refused = append(refused,
		bytes.Replace(fitted, []byte(`"profile_daily": [`), []byte(`"profile_daily": [-1, `), 1),
		bytes.Replace(fitted, []byte(`"base_arrival_rate": 0.001626157407407404`), []byte(`"base_arrival_rate": 0`), 1),
		[]byte(`null`), []byte(`[]`))
	for _, spec := range refused {
		if load(spec) == nil {
			f.Fatalf("a broken spec is accepted:\n%s", spec)
		}
		f.Add(spec)
	}
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadModel(in)
		if err != nil {
			return
		}
		first := filepath.Join(dir, "first.json")
		if err := m.Save(first); err != nil {
			t.Fatalf("an accepted spec does not save: %v", err)
		}
		again, err := LoadModel(first)
		if err != nil {
			t.Fatalf("a saved spec does not re-load: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("a saved spec re-loads to another model:\n%+v\nwant\n%+v", again, m)
		}
		second := filepath.Join(dir, "second.json")
		if err := again.Save(second); err != nil {
			t.Fatalf("a re-loaded spec does not save: %v", err)
		}
		a, err := os.ReadFile(first)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("save → load → save changed the spec:\n%s\nthen\n%s", a, b)
		}
	})
}
