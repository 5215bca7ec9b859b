package expt

import (
	"strconv"

	"predctl/internal/kmutex"
	"predctl/internal/obs"
)

// MetricsRegistry runs the instrumented on-line sweep — every k-mutex
// protocol over the E4 workload grid — recording into one obs registry,
// and returns it for a Prometheus dump (`pcbench metrics`). Because it
// reuses e4Workload verbatim, the scapegoat series it emits are exactly
// the numbers the E4/E5 tables print.
func MetricsRegistry(seed int64) (*obs.Registry, error) {
	reg := obs.NewRegistry()
	for _, n := range []int{2, 4, 8, 16, 32} {
		w := e4Workload(n, seed)
		w.Reg = reg
		w.MetricLabels = []obs.Label{obs.L("n", strconv.Itoa(n))}
		if _, _, err := kmutex.RunScapegoat(w, false); err != nil {
			return nil, err
		}
		if _, _, err := kmutex.RunScapegoat(w, true); err != nil {
			return nil, err
		}
		if _, _, err := kmutex.RunCentral(w); err != nil {
			return nil, err
		}
		if _, _, err := kmutex.RunToken(w); err != nil {
			return nil, err
		}
		if _, _, err := kmutex.RunUncontrolled(w); err != nil {
			return nil, err
		}
	}
	return reg, nil
}
