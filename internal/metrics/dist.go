package metrics

import "math"

// nanIfEmpty converts an ok-variant result to the registry's export
// convention: NaN (rendered as JSON null / CSV NaN) for an empty source.
func nanIfEmpty(v float64, ok bool) float64 {
	if !ok {
		return math.NaN()
	}
	return v
}
