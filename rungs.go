package spotfi

import "spotfi/internal/admit"

// BuildLadder constructs one Localizer per degradation rung, cheapest
// last, all sharing base's metrics and quality monitor. modes bounds how
// many rungs are built (1 full MUSIC only, 2 adds the ESPRIT fast path,
// 3 adds the coarse rung). Each rung's ModeLabel is the admit.Mode name
// it serves, so fixes and traces say which rung produced them.
//
// The coarse rung runs exactly what the fast-path rung runs: the MUSIC
// sweep has no cheaper exact variant, and what the rung should trade away
// instead is an accuracy decision that needs its measured cost first.
//
// This is the single source of rung construction: Service builds its
// serving ladder here, and flight-recorder replay rebuilds the same
// ladder from a bundle's recorded config — the two must agree or replay
// stops being bit-exact.
func BuildLadder(base Config, aps []AP, modes int) ([]*Localizer, error) {
	configs := []func(Config) Config{
		func(c Config) Config {
			c.ModeLabel = admit.ModeFull.String()
			return c
		},
		func(c Config) Config {
			c.ModeLabel = admit.ModeFastPath.String()
			c.FastPath.Enabled = true
			return c
		},
		func(c Config) Config {
			c.ModeLabel = admit.ModeCoarse.String()
			c.FastPath.Enabled = true
			return c
		},
	}
	if modes < 1 {
		modes = 1
	}
	if modes < len(configs) {
		configs = configs[:modes]
	}
	locs := make([]*Localizer, 0, len(configs))
	for _, mk := range configs {
		loc, err := New(mk(base), aps)
		if err != nil {
			return nil, err
		}
		locs = append(locs, loc)
	}
	return locs, nil
}
