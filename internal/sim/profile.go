package sim

// Profile bundles the two halves of the performance model that produced a
// measurement: the hardware profile and the software systems layered over
// it. The benchmark harness embeds one Profile per experiment result so a
// BENCH_*.json artifact is self-describing — a future reader (or a later
// PR comparing trajectories) can see exactly which LogGP constants were in
// force without digging through source history.
type Profile struct {
	Machine  Machine `json:"machine"`
	Software []SW    `json:"software"`
}

// NewProfile builds a Profile from a machine and the software systems
// (deduplicated by name, order preserved) that ran on it.
func NewProfile(m Machine, sws ...SW) Profile {
	p := Profile{Machine: m}
	seen := map[string]bool{}
	for _, sw := range sws {
		if seen[sw.Name] {
			continue
		}
		seen[sw.Name] = true
		p.Software = append(p.Software, sw)
	}
	return p
}
