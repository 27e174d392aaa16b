package rate

// RealityShowHourly is the 24-hour multiplier curve approximating Figure 4
// (right) of the paper: a deep trough between 4am and 11am ("no interesting
// contestant activities"), a ramp through the afternoon, and an evening
// peak around 21h–23h when users flock to the site. Values are relative to
// the daily mean shape; the absolute scale comes from Profile.Base.
var RealityShowHourly = [24]float64{
	0.95, // 00h — late-evening tail
	0.70, // 01h
	0.45, // 02h
	0.28, // 03h
	0.15, // 04h — trough begins (paper: 4am–11am quiet)
	0.10, // 05h
	0.08, // 06h
	0.08, // 07h
	0.10, // 08h
	0.14, // 09h
	0.22, // 10h
	0.40, // 11h — trough ends
	0.60, // 12h
	0.72, // 13h
	0.80, // 14h
	0.85, // 15h
	0.90, // 16h
	0.95, // 17h
	1.05, // 18h — early evening rise
	1.20, // 19h
	1.35, // 20h
	1.50, // 21h — prime-time peak
	1.45, // 22h
	1.20, // 23h
}

// RealityShowDaily is the 7-day multiplier (0 = Sunday): weekends carry a
// slightly higher load than weekdays, per Figure 4 (center).
var RealityShowDaily = [7]float64{
	1.15, // Sun
	0.95, // Mon
	0.95, // Tue
	0.96, // Wed
	0.97, // Thu
	1.00, // Fri
	1.12, // Sat
}

// RealityShow returns the default profile used throughout the
// reproduction: the Figure 4 diurnal/weekly shape at the given base rate
// (arrivals per second at multiplier 1), starting on a Sunday like the
// paper's trace.
func RealityShow(base float64) (*Profile, error) {
	return New(base, RealityShowHourly, RealityShowDaily, 0)
}

// SoccerGame returns a profile for the paper's hypothesized alternative
// application (Section 6: "the periodicity observed in our reality TV
// application is likely to be very different from that observed in live
// feeds associated with a soccer game"): near-zero background with a
// sharp two-hour event window starting at the given hour.
func SoccerGame(base float64, kickoffHour int) (*Profile, error) {
	var hourly [24]float64
	for i := range hourly {
		hourly[i] = 0.02
	}
	for h := kickoffHour - 1; h <= kickoffHour+2; h++ {
		idx := ((h % 24) + 24) % 24
		switch {
		case h == kickoffHour-1:
			hourly[idx] = 0.5 // pre-game ramp
		case h == kickoffHour || h == kickoffHour+1:
			hourly[idx] = 3.0 // the match
		default:
			hourly[idx] = 0.3 // post-game tail
		}
	}
	var daily [7]float64
	for i := range daily {
		daily[i] = 1
	}
	return New(base, hourly, daily, 0)
}
