package expt

import (
	"fmt"

	"predctl/internal/kmutex"
)

// E6 reproduces the §6 comparison with k-mutual-exclusion algorithms for
// k = n−1: the single anti-token (a liability) beats both a centralized
// coordinator and the k-token (privilege-based) family on messages.
func E6(seed int64) *Table {
	t := &Table{
		ID:    "E6",
		Title: "(n−1)-mutual exclusion: anti-token vs baselines (§6)",
		Claim: "the anti-token strategy is simpler and cheaper than k-token algorithms at k = n−1",
		Columns: []string{
			"n", "protocol", "messages", "msgs/entry", "mean resp", "max resp",
		},
	}
	for _, n := range []int{4, 8, 16} {
		w := e4Workload(n, seed)
		runs := []struct {
			name string
			run  func() (*kmutex.Metrics, error)
		}{
			{"central coordinator", func() (*kmutex.Metrics, error) { _, m, err := kmutex.RunCentral(w); return m, err }},
			{"k tokens", func() (*kmutex.Metrics, error) { _, m, err := kmutex.RunToken(w); return m, err }},
			{"anti-token", func() (*kmutex.Metrics, error) { _, m, err := kmutex.RunScapegoat(w, false); return m, err }},
		}
		for _, rr := range runs {
			m, err := rr.run()
			if err != nil {
				panic(err)
			}
			t.Row(n, rr.name, m.CtlMessages,
				fmt.Sprintf("%.3f", m.MessagesPerEntry()),
				fmt.Sprintf("%.1f", m.Responses.Mean()), m.Responses.Max())
		}
	}
	t.Note("central pays 3 messages on every entry; the token family pays ~n per")
	t.Note("token miss; the anti-token pays 2 only when the scapegoat itself enters.")
	return t
}
