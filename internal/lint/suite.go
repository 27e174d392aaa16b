package lint

// DefaultAnalyzers returns a fresh instance of the full lsmvet suite.
// Instances carry per-run state (seedlane and unreached accumulate
// state across packages), so a new slice is built for every Run.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewDeterminism(nil),
		NewHotpath(),
		NewEntryRetain(),
		NewSeedlane(),
		NewUnreached(nil, nil),
	}
}
