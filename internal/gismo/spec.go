package gismo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/rate"
	"repro/internal/topology"
)

// The model spec is the interchange format of the calibration loop:
// lsmcal fits a Model off a trace and saves it, lsmgen loads it and
// generates. The format is the Table 2 parameter set as JSON, with the
// arrival profile's hourly/weekly shape serialized explicitly so a
// fitted empirical profile survives the round trip. Save and LoadModel
// are inverses down to the byte: encoding/json renders floats in their
// canonical shortest form and struct fields in declaration order, so
// load → save reproduces the file exactly.

// modelAlias strips Model's custom JSON methods so the spec codec
// controls field handling directly — including LoadModel's
// unknown-field strictness, which would stop at the method boundary if
// the decoder saw a type with its own UnmarshalJSON.
type modelAlias Model

// modelSpec is the on-disk shape: the Table 2 scalars plus the arrival
// profile shape (absent when the model rides the built-in reality-show
// profile).
type modelSpec struct {
	modelAlias
	ProfileHourly *[24]float64 `json:"profile_hourly,omitempty"`
	ProfileDaily  *[7]float64  `json:"profile_daily,omitempty"`
}

// finishDecode rebuilds the non-serialized fields after a decode: the
// rate profile from its serialized shape (anchored at BaseArrivalRate)
// and the default topology when none was set.
func (m *Model) finishDecode(hourly *[24]float64, daily *[7]float64) error {
	if hourly != nil && daily != nil {
		p, err := rate.New(m.BaseArrivalRate, *hourly, *daily, 0)
		if err != nil {
			return err
		}
		m.Profile = p
	}
	if m.Topology.NumAS == 0 {
		m.Topology = topology.DefaultConfig()
	}
	return nil
}

// LoadModel reads a model spec from path and validates it. Decoding is
// strict: unknown fields anywhere in the document are errors, so a
// typoed parameter name fails loudly instead of silently falling back
// to a zero value.
func LoadModel(path string) (Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Model{}, fmt.Errorf("gismo: load model: %w", err)
	}
	var aux modelSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&aux); err != nil {
		return Model{}, fmt.Errorf("gismo: load model %s: %w", path, err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return Model{}, fmt.Errorf("gismo: load model %s: trailing data after spec object", path)
	}
	m := Model(aux.modelAlias)
	if err := m.finishDecode(aux.ProfileHourly, aux.ProfileDaily); err != nil {
		return Model{}, fmt.Errorf("gismo: load model %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return Model{}, fmt.Errorf("gismo: load model %s: %w", path, err)
	}
	return m, nil
}

// Save validates the model and writes its spec to path, indented, with
// a trailing newline. Field order follows the Model declaration, and
// floats encode in Go's canonical shortest round-trip form, so saving
// a loaded spec reproduces the input byte for byte.
func (m Model) Save(path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
