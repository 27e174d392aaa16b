package gismo

import (
	"bytes"
	"encoding/json"
	"errors"
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

// modelAlias strips Model's MarshalJSON so the spec codec controls
// field handling directly instead of recursing into it.
type modelAlias Model

// modelSpec is the on-disk shape: the Table 2 scalars plus the arrival
// profile shape (absent when the model rides the built-in reality-show
// profile).
type modelSpec struct {
	modelAlias
	ProfileHourly *[24]float64 `json:"profile_hourly,omitempty"`
	ProfileDaily  *[7]float64  `json:"profile_daily,omitempty"`
}

// LoadModel reads a model spec from path and decodes it with
// ParseModel.
func LoadModel(path string) (Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Model{}, fmt.Errorf("gismo: load model: %w", err)
	}
	m, err := ParseModel(data)
	if err != nil {
		return Model{}, fmt.Errorf("gismo: load model %s: %w", path, err)
	}
	return m, nil
}

// ParseModel decodes and validates a model spec. Decoding is strict:
// unknown fields anywhere in the document and data after the spec
// object are errors, so a typoed parameter name fails loudly instead
// of silently falling back to a zero value. It is the one spec
// decoder: LoadModel reads files through it, and lsmload's -check the
// spec a replay's meta record embeds.
func ParseModel(data []byte) (Model, error) {
	var aux modelSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&aux); err != nil {
		return Model{}, err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return Model{}, errors.New("trailing data after spec object")
	}
	m := Model(aux.modelAlias)
	// Rebuild what the spec does not carry: the rate profile from its
	// serialized shape, anchored at BaseArrivalRate, and the default
	// topology when none was set.
	if aux.ProfileHourly != nil && aux.ProfileDaily != nil {
		p, err := rate.New(m.BaseArrivalRate, *aux.ProfileHourly, *aux.ProfileDaily, 0)
		if err != nil {
			return Model{}, err
		}
		m.Profile = p
	}
	if m.Topology.NumAS == 0 {
		m.Topology = topology.DefaultConfig()
	}
	if err := m.Validate(); err != nil {
		return Model{}, err
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
