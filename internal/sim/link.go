package sim

import (
	"math"
	"math/rand"
	"sort"

	"spotfi/internal/geom"
	"spotfi/internal/rf"
)

// AP is an access point with a uniform linear antenna array.
type AP struct {
	ID  int
	Pos geom.Point
	// NormalAngle is the direction the array broadside faces, in radians
	// from +X. AoAs are measured relative to this normal.
	NormalAngle float64
}

// AoATo returns the folded AoA at the AP of a ray arriving from point p.
func (ap AP) AoATo(p geom.Point) float64 {
	dir := p.Sub(ap.Pos).Angle()
	return foldAoA(dir - ap.NormalAngle)
}

// LinkConfig controls path enumeration and gain assignment.
type LinkConfig struct {
	// PathLoss maps traveled distance to received power for an
	// unobstructed path.
	PathLoss rf.PathLoss
	// MaxPaths caps how many multipath components a link keeps (the
	// strongest survive). Indoor environments have 6–8 significant
	// reflectors (paper Sec. 3.1); the cap models the rest vanishing
	// into the noise floor.
	MaxPaths int
	// MinGainDBm drops paths weaker than this absolute floor.
	MinGainDBm float64
	// DirectCutoffDB removes the direct path entirely when the walls on
	// the straight line attenuate it by at least this much: past a couple
	// of walls no coherent direct component survives indoors, which is
	// the paper's "direct path ... may not even exist" regime (Sec. 3.2).
	// 0 disables the cutoff.
	DirectCutoffDB float64
}

// DefaultLinkConfig returns the configuration used by the testbed.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		PathLoss:       rf.DefaultPathLoss(),
		MaxPaths:       8,
		MinGainDBm:     -95,
		DirectCutoffDB: 22,
	}
}

// Link holds the resolved multipath between one target position and one AP.
type Link struct {
	AP     AP
	Target geom.Point
	// Paths is sorted by descending gain. Paths[i].Kind == Direct appears
	// at most once.
	Paths []Path
}

// NewLink ray-traces the environment and returns the multipath profile of
// the target→AP link. rng supplies the per-path propagation phases (fixed
// for the lifetime of the link, as they are in a static environment).
func NewLink(env *Environment, ap AP, target geom.Point, cfg LinkConfig, rng *rand.Rand) *Link {
	var paths []Path

	// Direct path: present unless the blocking loss exceeds the cutoff.
	d := target.Dist(ap.Pos)
	loss := env.CrossLossDB(target, ap.Pos)
	if d > 0 && (cfg.DirectCutoffDB <= 0 || loss < cfg.DirectCutoffDB) {
		paths = append(paths, Path{
			Kind:     Direct,
			AoA:      ap.AoATo(target),
			ToF:      d / rf.SpeedOfLight,
			GainDBm:  cfg.PathLoss.RSSIdBm(d) - loss,
			PhaseRad: rng.Float64() * 2 * math.Pi,
		})
	}

	// Single-bounce specular reflections off each reflective wall, via the
	// image method: mirror the target across the wall line; the specular
	// point is where image→AP crosses the wall segment.
	for i, w := range env.Walls {
		if w.ReflectLossDB < 0 {
			continue
		}
		img := w.Seg.Reflect(target)
		spec, ok := w.Seg.Intersection(geom.Segment{A: img, B: ap.Pos})
		if !ok {
			continue
		}
		total := target.Dist(spec) + spec.Dist(ap.Pos)
		if total <= 0 {
			continue
		}
		loss := w.ReflectLossDB +
			env.crossLossDBExcept(target, spec, i) +
			env.crossLossDBExcept(spec, ap.Pos, i)
		paths = append(paths, Path{
			Kind:     Reflected,
			AoA:      ap.AoATo(spec),
			ToF:      total / rf.SpeedOfLight,
			GainDBm:  cfg.PathLoss.RSSIdBm(total) - loss,
			PhaseRad: rng.Float64() * 2 * math.Pi,
		})
	}

	// Point scatterers: target → scatterer → AP.
	for _, s := range env.Scatterers {
		total := target.Dist(s.Pos) + s.Pos.Dist(ap.Pos)
		if total <= 0 {
			continue
		}
		loss := s.LossDB +
			env.CrossLossDB(target, s.Pos) +
			env.CrossLossDB(s.Pos, ap.Pos)
		paths = append(paths, Path{
			Kind:     Scattered,
			AoA:      ap.AoATo(s.Pos),
			ToF:      total / rf.SpeedOfLight,
			GainDBm:  cfg.PathLoss.RSSIdBm(total) - loss,
			PhaseRad: rng.Float64() * 2 * math.Pi,
		})
	}

	sort.Slice(paths, func(a, b int) bool { return paths[a].GainDBm > paths[b].GainDBm })
	// Drop sub-floor paths, keep at most MaxPaths.
	kept := paths[:0]
	for _, p := range paths {
		if p.GainDBm < cfg.MinGainDBm {
			continue
		}
		kept = append(kept, p)
		if cfg.MaxPaths > 0 && len(kept) == cfg.MaxPaths {
			break
		}
	}
	return &Link{AP: ap, Target: target, Paths: kept}
}

// DirectPath returns the direct path and whether the link has one.
func (l *Link) DirectPath() (Path, bool) {
	for _, p := range l.Paths {
		if p.Kind == Direct {
			return p, true
		}
	}
	return Path{}, false
}

// HasStrongDirect reports whether the link's direct path exists and is
// within marginDB of the strongest path — the paper's working definition of
// a LoS link for evaluation purposes (Sec. 4.4.1).
func (l *Link) HasStrongDirect(marginDB float64) bool {
	d, ok := l.DirectPath()
	if !ok || len(l.Paths) == 0 {
		return false
	}
	return d.GainDBm >= l.Paths[0].GainDBm-marginDB
}
