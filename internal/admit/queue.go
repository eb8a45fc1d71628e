// Package admit is the server's overload-resilience layer: adaptive
// admission control for the localization queue (CoDel-style sojourn
// shedding with per-target fairness), per-AP circuit breakers fed by
// ingest and quality signals, and a load-aware degradation ladder that
// trades localization fidelity for freshness under pressure.
//
// The design goal is graceful degradation, not collapse: under sustained
// overload the server sheds the *stalest* work first (a fix computed from
// a burst that waited seconds is worse than no fix — the target moved),
// keeps per-device fairness (one chatty target sheds its own backlog, not
// the fleet's), quarantines misbehaving APs instead of letting them poison
// every fix, and steps the pipeline down to cheaper estimators before it
// sheds at all.
package admit

import (
	"sync"
	"time"
)

// ShedReason classifies why a queued burst was shed; it is the `reason`
// label on spotfi_admit_shed_total.
type ShedReason string

const (
	// ShedFull: the queue was at capacity and this burst was evicted to
	// make room for a fresher one (per-MAC fair eviction).
	ShedFull ShedReason = "full"
	// ShedStale: the burst's sojourn exceeded the hard freshness deadline.
	ShedStale ShedReason = "stale"
	// ShedCoDel: shed by the CoDel control law while sojourn stayed above
	// target for a full interval.
	ShedCoDel ShedReason = "codel"
	// ShedDrain: the queue was aborted (drain deadline exceeded) or the
	// burst arrived after intake closed.
	ShedDrain ShedReason = "drain"
)

// ShedReasons lists every reason, for eager metric registration.
func ShedReasons() []ShedReason {
	return []ShedReason{ShedFull, ShedStale, ShedCoDel, ShedDrain}
}

// Item is one queued unit of work.
type Item struct {
	// MAC is the target the burst belongs to — the fairness key.
	MAC string
	// EnqueuedAt is when Push accepted the item (queue clock).
	EnqueuedAt time.Time
	// Payload is the caller's burst context, returned verbatim by Pop.
	Payload any
}

// defaultTarget is QueueConfig.Target's default.
const defaultTarget = 150 * time.Millisecond

// QueueConfig configures a Queue. Zero fields select defaults.
type QueueConfig struct {
	// Capacity bounds the number of queued items (default 64).
	Capacity int
	// Target is the acceptable standing sojourn: CoDel starts shedding
	// when delivered items have waited longer than this for a full
	// Interval (default 150 ms).
	Target time.Duration
	// Interval is the CoDel observation window (default 2 s).
	Interval time.Duration
	// Deadline is the hard freshness budget: an item that waited longer is
	// shed unconditionally at Pop (default 1 s; must be ≥ Target).
	Deadline time.Duration
	// RateWindow sizes the sliding window behind ShedRate (default 10 s).
	RateWindow time.Duration
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
	// OnShed, when non-nil, observes every shed item with its reason. It
	// is called outside the queue lock and must not call back into the
	// Queue.
	OnShed func(Item, ShedReason)
	// Metrics, when non-nil, receives sojourn/shed/depth observations.
	Metrics *QueueMetrics
}

func (c *QueueConfig) fill() {
	if c.Capacity <= 0 {
		c.Capacity = 64
	}
	if c.Target <= 0 {
		c.Target = defaultTarget
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Deadline <= 0 {
		c.Deadline = 1 * time.Second
	}
	if c.Deadline < c.Target {
		c.Deadline = c.Target
	}
	if c.RateWindow <= 0 {
		c.RateWindow = 10 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// Queue is a bounded FIFO with CoDel-style admission control. Producers
// Push from connection goroutines; a bounded worker pool Pops. Under
// overload it sheds the stalest work first: at capacity the heaviest
// target's oldest burst is evicted (fairness), and at Pop items whose
// sojourn blew the freshness budget are shed before a worker wastes time
// on them. It is safe for concurrent use.
type Queue struct {
	cfg QueueConfig

	mu     sync.Mutex
	cond   *sync.Cond
	items  []Item
	byMAC  map[string]int // queued items per target
	closed bool           // intake stopped; Pop drains the remainder
	abort  bool           // drain abandoned; Pop returns immediately

	ctl codel

	// Two-bucket sliding window behind ShedRate.
	winStart  time.Time
	curShed   uint64
	curOut    uint64
	prevShed  uint64
	prevOut   uint64
	shedTotal uint64
	outTotal  uint64
}

// NewQueue returns a Queue with cfg's policy.
func NewQueue(cfg QueueConfig) *Queue {
	cfg.fill()
	q := &Queue{
		cfg:   cfg,
		items: make([]Item, 0, cfg.Capacity),
		byMAC: make(map[string]int),
		ctl: codel{
			targetNs:   cfg.Target.Nanoseconds(),
			intervalNs: cfg.Interval.Nanoseconds(),
			deadlineNs: cfg.Deadline.Nanoseconds(),
		},
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues a burst for mac. At capacity it first evicts the oldest
// item of the target holding the most queue slots — the chatty device
// sheds its own backlog before anyone else's — and reports the eviction
// via OnShed with ShedFull. After Close/Abort the item is not enqueued and
// is reported shed with ShedDrain. Push reports whether the item was
// admitted.
func (q *Queue) Push(mac string, payload any) bool {
	q.mu.Lock()
	if q.closed {
		q.accountShedLocked(q.cfg.Now())
		q.mu.Unlock()
		q.notifyShed(Item{MAC: mac, Payload: payload}, ShedDrain)
		return false
	}
	now := q.cfg.Now()
	var victim Item
	evicted := false
	if len(q.items) >= q.cfg.Capacity {
		victim = q.evictLocked(mac)
		evicted = true
		q.accountShedLocked(now)
	}
	q.items = append(q.items, Item{MAC: mac, EnqueuedAt: now, Payload: payload})
	q.byMAC[mac]++
	depth := len(q.items)
	q.cond.Signal()
	q.mu.Unlock()

	q.cfg.Metrics.setDepth(depth)
	if evicted {
		q.notifyShed(victim, ShedFull)
	}
	return true
}

// evictLocked removes and returns the oldest item of the heaviest target.
// Ties (and the common single-target case) resolve to the target whose
// item has waited longest, so the incoming MAC only displaces others when
// it genuinely holds fewer slots than they do.
func (q *Queue) evictLocked(incoming string) Item {
	heaviest := q.byMAC[incoming] // incoming's share competes from the start
	for _, n := range q.byMAC {
		if n > heaviest {
			heaviest = n
		}
	}
	victimMAC := incoming
	victimIdx := -1
	if q.byMAC[incoming] < heaviest {
		// Another target is strictly heavier: its oldest item goes. Scan
		// from the front so among equally-heavy targets the longest-waiting
		// item loses — deterministic and freshness-preserving.
		for i := range q.items {
			if q.byMAC[q.items[i].MAC] == heaviest {
				victimMAC = q.items[i].MAC
				victimIdx = i
				break
			}
		}
	} else {
		for i := range q.items {
			if q.items[i].MAC == incoming {
				victimIdx = i
				break
			}
		}
	}
	v := q.items[victimIdx]
	copy(q.items[victimIdx:], q.items[victimIdx+1:])
	q.items[len(q.items)-1] = Item{}
	q.items = q.items[:len(q.items)-1]
	q.byMAC[victimMAC]--
	if q.byMAC[victimMAC] == 0 {
		delete(q.byMAC, victimMAC)
	}
	return v
}

// Pop blocks until an item is deliverable, the queue is closed and empty,
// or aborted. It applies the admission policy: items past the hard
// deadline are shed (ShedStale), and while sojourn stays above Target for
// a full Interval the CoDel control law sheds at an increasing rate
// (ShedCoDel). It returns the delivered item, its queue sojourn, and
// ok=false when the queue is done.
func (q *Queue) Pop() (Item, time.Duration, bool) {
	q.mu.Lock()
	for {
		for len(q.items) == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.abort || (q.closed && len(q.items) == 0) {
			q.mu.Unlock()
			return Item{}, 0, false
		}
		now := q.cfg.Now()
		it := q.items[0]
		copy(q.items, q.items[1:])
		q.items[len(q.items)-1] = Item{}
		q.items = q.items[:len(q.items)-1]
		q.byMAC[it.MAC]--
		if q.byMAC[it.MAC] == 0 {
			delete(q.byMAC, it.MAC)
		}
		sojourn := now.Sub(it.EnqueuedAt)
		shed, reason := q.ctl.decide(now.UnixNano(), sojourn.Nanoseconds())
		if shed {
			q.accountShedLocked(now)
			depth := len(q.items)
			q.mu.Unlock()
			q.cfg.Metrics.setDepth(depth)
			q.notifyShed(it, reason)
			q.mu.Lock()
			continue
		}
		q.rollWindowLocked(now)
		q.curOut++
		q.outTotal++
		depth := len(q.items)
		q.mu.Unlock()
		q.cfg.Metrics.observeDelivered(sojourn, depth)
		return it, sojourn, true
	}
}

// Close stops intake: subsequent Pushes are shed with ShedDrain, while
// Pop keeps draining what is already queued. Safe to call more than once.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Abort closes the queue and sheds everything still queued (ShedDrain),
// unblocking all Pops. It returns how many items it shed. Use it when the
// drain deadline expires.
func (q *Queue) Abort() int {
	q.mu.Lock()
	q.closed = true
	q.abort = true
	rest := q.items
	q.items = nil
	now := q.cfg.Now()
	for range rest {
		q.accountShedLocked(now)
	}
	for mac := range q.byMAC {
		delete(q.byMAC, mac)
	}
	q.cond.Broadcast()
	q.mu.Unlock()

	q.cfg.Metrics.setDepth(0)
	for _, it := range rest {
		q.notifyShed(it, ShedDrain)
	}
	return len(rest)
}

// Len returns the current queue depth.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// ShedTotal returns how many items have been shed since start, across all
// reasons.
func (q *Queue) ShedTotal() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.shedTotal
}

// DeliveredTotal returns how many items Pop has handed to workers since
// start. Together with ShedTotal it is the good/total pair behind the
// admission-shed SLO: delivered / (delivered + shed).
func (q *Queue) DeliveredTotal() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.outTotal
}

// ShedRate returns the fraction of queue outcomes (delivered + shed) that
// were sheds over roughly the last RateWindow — the signal behind the
// /readyz degraded check. It returns 0 before any outcome.
func (q *Queue) ShedRate() float64 {
	q.mu.Lock()
	q.rollWindowLocked(q.cfg.Now())
	shed := q.curShed + q.prevShed
	total := shed + q.curOut + q.prevOut
	q.mu.Unlock()
	if total == 0 {
		return 0
	}
	return float64(shed) / float64(total)
}

// accountShedLocked folds one shed into the sliding window and totals.
func (q *Queue) accountShedLocked(now time.Time) {
	q.rollWindowLocked(now)
	q.curShed++
	q.shedTotal++
}

// rollWindowLocked advances the two-bucket sliding window: the current
// bucket ages into prev each RateWindow, so ShedRate always reflects
// between one and two windows of history.
func (q *Queue) rollWindowLocked(now time.Time) {
	w := q.cfg.RateWindow
	if q.winStart.IsZero() {
		q.winStart = now
		return
	}
	elapsed := now.Sub(q.winStart)
	switch {
	case elapsed < w:
	case elapsed < 2*w:
		q.prevShed, q.prevOut = q.curShed, q.curOut
		q.curShed, q.curOut = 0, 0
		q.winStart = q.winStart.Add(w)
	default:
		// Idle across ≥ 2 windows: all history is stale.
		q.prevShed, q.prevOut = 0, 0
		q.curShed, q.curOut = 0, 0
		q.winStart = now
	}
}

// notifyShed reports one shed to the metrics and the OnShed observer.
func (q *Queue) notifyShed(it Item, reason ShedReason) {
	q.cfg.Metrics.countShed(reason)
	if q.cfg.OnShed != nil {
		q.cfg.OnShed(it, reason)
	}
}
