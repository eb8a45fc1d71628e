package admit

import (
	"sync"
	"time"

	"spotfi/internal/obs"
)

// Mode is a rung on the degradation ladder, cheapest last. The server
// keeps one Localizer per rung and picks by the ladder's current mode.
type Mode int

const (
	// ModeFull: the full MUSIC pipeline — maximum accuracy.
	ModeFull Mode = iota
	// ModeFastPath: ESPRIT-first fast path, MUSIC only as fallback.
	ModeFastPath
	// ModeCoarse: the deepest rung. It runs what ModeFastPath runs until
	// a cheaper estimate with a measured accuracy cost is chosen for it.
	ModeCoarse

	numModes
)

// String returns the mode label stamped on fixes and traces.
func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeFastPath:
		return "fastpath"
	case ModeCoarse:
		return "coarse"
	}
	return "unknown"
}

// LadderConfig configures a Ladder. Use DefaultLadderConfig to derive the
// thresholds from the queue's sojourn target.
type LadderConfig struct {
	// MaxMode bounds degradation depth (ModeFull disables the ladder).
	MaxMode Mode
	// StepDownAt[m] is the sojourn at which mode m degrades to m+1.
	StepDownAt []time.Duration
	// StepUpBelow: sojourns at or below this count toward recovery.
	StepUpBelow time.Duration
	// HoldGood is how many consecutive good sojourns step back up —
	// hysteresis against mode flapping.
	HoldGood int
	// OnChange, when non-nil, observes mode changes (outside the lock).
	OnChange func(from, to Mode)
}

// DefaultLadderConfig derives thresholds from the queue's sojourn target
// (QueueConfig's default when target is zero): degrade to the fast path
// at 2× target, to the coarse rung at 6×, and recover (after HoldGood
// consecutive good bursts) below target/2.
func DefaultLadderConfig(target time.Duration) LadderConfig {
	if target <= 0 {
		target = defaultTarget
	}
	return LadderConfig{
		MaxMode:     ModeCoarse,
		StepDownAt:  []time.Duration{2 * target, 6 * target},
		StepUpBelow: target / 2,
		HoldGood:    16,
	}
}

// Ladder tracks the active degradation mode from delivered-burst sojourn
// times: one observation above the current rung's threshold steps down
// immediately (load is already visible), while stepping back up demands
// HoldGood consecutive comfortable sojourns. Safe for concurrent use.
type Ladder struct {
	cfg LadderConfig

	mu   sync.Mutex
	mode Mode
	good int
}

// NewLadder returns a Ladder in ModeFull, exporting the active mode as
// the spotfi_admit_mode gauge when reg is non-nil.
func NewLadder(reg *obs.Registry, cfg LadderConfig) *Ladder {
	if cfg.HoldGood <= 0 {
		cfg.HoldGood = 16
	}
	if cfg.MaxMode >= numModes {
		cfg.MaxMode = numModes - 1
	}
	l := &Ladder{cfg: cfg}
	if reg != nil {
		reg.GaugeFunc("spotfi_admit_mode",
			"Active degradation mode: 0 full MUSIC, 1 ESPRIT fast path, 2 coarse.",
			nil,
			func() float64 { return float64(l.Current()) })
	}
	return l
}

// Observe folds one delivered burst's sojourn into the ladder and returns
// the mode the burst should be processed in.
func (l *Ladder) Observe(sojourn time.Duration) Mode {
	l.mu.Lock()
	from := l.mode
	switch {
	case l.mode < l.cfg.MaxMode && int(l.mode) < len(l.cfg.StepDownAt) && sojourn >= l.cfg.StepDownAt[l.mode]:
		l.mode++
		l.good = 0
	case l.mode > ModeFull && sojourn <= l.cfg.StepUpBelow:
		l.good++
		if l.good >= l.cfg.HoldGood {
			l.mode--
			l.good = 0
		}
	default:
		l.good = 0
	}
	to := l.mode
	l.mu.Unlock()
	if to != from && l.cfg.OnChange != nil {
		l.cfg.OnChange(from, to)
	}
	return to
}

// Current returns the active mode without observing anything.
func (l *Ladder) Current() Mode {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mode
}
