package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"spotfi"
	"spotfi/internal/loadgen"
	"spotfi/internal/rf"
	"spotfi/internal/sim"
	"spotfi/internal/wire"
)

// Offsets into a CSI-report frame (9-byte frame header, then the packed
// little-endian report: APID i32, Seq u64, TimestampNs i64, RSSI f64,
// MACLen u16, Antennas u16, Subcarriers u16, MAC, CSI values).
const (
	frameHeaderLen = 9
	frameOffTime   = frameHeaderLen + 12
	frameOffCSI    = frameHeaderLen + 34 + 17 // every loadgen MAC is 17 bytes
	seqBurstShift  = 16                       // Seq = burst<<16 | packet index
	apsPerTarget   = 4
	sceneAPs       = 6
)

// sceneSeed fixes the deployment: loadgen's room, its AP poses, the
// ground-truth positions, every link's multipath and every AP's antenna
// residual. A run's seed varies the traffic over it — the noise of every
// burst, the order targets are visited in and how their packets
// interleave — so runs with different seeds measure the same room.
const sceneSeed = 1

// scene is the deployment every workload draws from: loadgen's perimeter
// APs and room, with one target per ground-truth position.
type scene struct {
	sc    *loadgen.Scene
	aps   []spotfi.AP
	seed  int64
	batch int

	band  rf.Band
	array rf.Array
	// links[pos][i] is the multipath profile from position pos to its
	// i-th AP; it is fixed per (AP, position), as in a static room.
	links [][]*sim.Link
	// apPhase[ap] is the AP's static antenna phase residual: hardware,
	// so the same for every target it hears.
	apPhase [][]float64
}

// newScene builds the deployment; seed drives the traffic synthesized
// over it.
func newScene(seed int64, positions, batch int) (*scene, error) {
	sc, err := loadgen.NewScene(loadgen.SceneConfig{
		Seed:         sceneSeed,
		APs:          sceneAPs,
		Targets:      positions,
		Positions:    positions,
		APsPerTarget: apsPerTarget,
		Batch:        batch,
	})
	if err != nil {
		return nil, err
	}
	s := &scene{sc: sc, seed: seed, batch: batch, band: rf.DefaultBand()}
	s.array = rf.DefaultArray(s.band)
	for _, ap := range sc.APs {
		s.aps = append(s.aps, spotfi.AP{ID: ap.ID, Pos: ap.Pos, NormalAngle: ap.NormalAngle})
	}
	imp := sim.DefaultImpairments()
	s.apPhase = make([][]float64, len(sc.APs))
	for a := range sc.APs {
		rng := rand.New(rand.NewSource(mix(sceneSeed, 1, int64(a), -1)))
		s.apPhase[a] = make([]float64, s.array.Antennas)
		for m := range s.apPhase[a] {
			s.apPhase[a][m] = rng.NormFloat64() * imp.AntennaPhaseSigmaRad
		}
	}
	s.links = make([][]*sim.Link, positions)
	for p := range s.links {
		for _, a := range sc.APsForPos(p) {
			link := sim.NewLink(sc.Env, sc.APs[a], sc.Positions[p], sim.DefaultLinkConfig(),
				rand.New(rand.NewSource(mix(sceneSeed, 2, int64(a), int64(p)))))
			s.links[p] = append(s.links[p], link)
		}
	}
	return s, nil
}

// truth returns the ground-truth position of target t.
func (s *scene) truth(t int) spotfi.Point { return s.sc.Positions[t] }

// traffic is a set of bursts with fresh synthesizer noise, pre-encoded as
// wire frames outside the Go heap, plus the order and due times in which
// an open-loop generator injects their packets.
type traffic struct {
	sc       *scene
	bursts   int
	perBurst int    // packets per burst: apsPerTarget × batch
	frameLen int    // bytes of one wire frame
	slotLen  int    // bytes of one packed frame in the arena
	frames   *arena // packed frames, burst-major: burst b's packets are slots [b·perBurst, (b+1)·perBurst)
	target   []int32
	hash     []uint64 // per burst, over its CSI values

	// Open loop only: order[i] is the slot injected i-th, due[i] its due
	// time in ns after the generator starts; sched[b] is burst b's
	// scheduled time, the due time of its last packet.
	order []int32
	due   []int64
	sched []int64
}

// visitOrder is the target of each of n bursts: a seeded permutation of
// the positions, cycled, so a target recurs only every `positions`
// bursts.
func (s *scene) visitOrder(n int) []int32 {
	perm := rand.New(rand.NewSource(mix(s.seed, 3, 0, 0))).Perm(len(s.sc.Positions))
	out := make([]int32, n)
	for b := range out {
		out[b] = int32(perm[b%len(perm)])
	}
	return out
}

// synthesize builds one burst per entry of targets. Burst b's noise comes
// from a generator seeded by (seed, stream, b, AP), so no two bursts share
// CSI.
func (s *scene) synthesize(stream int64, targets []int32) (*traffic, error) {
	n := len(targets)
	t := &traffic{sc: s, bursts: n, perBurst: apsPerTarget * s.batch, target: targets}
	// All frames have one length: fixed CSI dimensions and MAC length.
	values := 2 * s.array.Antennas * s.band.Subcarriers
	t.frameLen = frameOffCSI + 8*values
	t.slotLen = frameOffCSI + values
	var err error
	t.frames, err = newArena(n * t.perBurst * t.slotLen)
	if err != nil {
		return nil, err
	}
	t.hash = make([]uint64, n)

	var wg sync.WaitGroup
	errs := make([]error, runtime.GOMAXPROCS(0))
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fr := t.reader()
			for b := w; b < n; b += len(errs) {
				frames, err := s.burstFrames(stream, b, int(t.target[b]))
				if err != nil {
					errs[w] = err
					return
				}
				h := fnv.New64a()
				for k, f := range frames {
					i := b*t.perBurst + k
					if err := t.pack(i, f); err != nil {
						errs[w] = err
						return
					}
					if !bytes.Equal(fr.frame(i), f) {
						errs[w] = fmt.Errorf("burst %d packet %d does not unpack to its wire frame", b, k)
						return
					}
					h.Write(t.slot(i)[frameHeaderLen : frameHeaderLen+4]) // AP ID
					h.Write(t.slot(i)[frameOffCSI:])
				}
				t.hash[b] = h.Sum64()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.frames.free()
			return nil, err
		}
	}
	return t, nil
}

// burstFrames synthesizes and encodes burst b for target tgt: batch
// packets from each of the target's APs, AP-major, sequence numbers
// burst<<16 | k.
func (s *scene) burstFrames(stream int64, b, tgt int) ([][]byte, error) {
	mac := loadgen.TargetMAC(tgt)
	var out [][]byte
	for i, link := range s.links[tgt] {
		a := link.AP.ID
		imp := sim.DefaultImpairments()
		imp.AntennaPhaseOffsetsRad = s.apPhase[a]
		syn, err := sim.NewSynthesizer(link, s.band, s.array, imp,
			rand.New(rand.NewSource(mix(s.seed, 4+stream, int64(b), int64(i)))))
		if err != nil {
			return nil, fmt.Errorf("AP%d→target %d: %w", a, tgt, err)
		}
		for k := 0; k < s.batch; k++ {
			p := syn.NextPacket(mac)
			p.Seq = uint64(b)<<seqBurstShift | uint64(k)
			p.TimestampNs = 0
			f, err := wire.EncodeCSIReport(p)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := wire.WriteFrame(&buf, f); err != nil {
				return nil, err
			}
			out = append(out, buf.Bytes())
		}
	}
	return out, nil
}

// The arena packs each frame: its first frameOffCSI bytes as encoded,
// then one int8 per CSI component. Synthesized CSI is 8-bit quantized
// (sim.Impairments.Quantize), so every component is an integer in
// [-127, 127] or -0, which packs to negZero (int8 -128); unpacking
// restores the exact float64 bits, so the program decodes the frames
// wire.EncodeCSIReport produced.
const negZero = 0x80

// slot returns packed frame i.
func (t *traffic) slot(i int) []byte {
	return t.frames.buf[i*t.slotLen : (i+1)*t.slotLen : (i+1)*t.slotLen]
}

// pack stores wire frame f as packed frame i.
func (t *traffic) pack(i int, f []byte) error {
	dst := t.slot(i)
	if len(f) != t.frameLen {
		return fmt.Errorf("frame of %d bytes, want %d", len(f), t.frameLen)
	}
	copy(dst, f[:frameOffCSI])
	for k := range dst[frameOffCSI:] {
		v := math.Float64frombits(binary.LittleEndian.Uint64(f[frameOffCSI+8*k:]))
		switch {
		case v == 0 && math.Signbit(v):
			dst[frameOffCSI+k] = negZero
		case v == math.Trunc(v) && math.Abs(v) <= 127:
			dst[frameOffCSI+k] = byte(int8(v))
		default:
			return fmt.Errorf("CSI component %v is not 8-bit quantized", v)
		}
	}
	return nil
}

// frameReader unpacks frames into a reusable buffer and decodes them.
type frameReader struct {
	t   *traffic
	buf []byte
	rd  bytes.Reader
}

func (t *traffic) reader() *frameReader {
	return &frameReader{t: t, buf: make([]byte, t.frameLen)}
}

// frame unpacks frame i into the reader's buffer and returns it.
func (r *frameReader) frame(i int) []byte {
	s := r.t.slot(i)
	copy(r.buf, s[:frameOffCSI])
	for k, c := range s[frameOffCSI:] {
		v := float64(int8(c))
		if c == negZero {
			v = math.Copysign(0, -1)
		}
		binary.LittleEndian.PutUint64(r.buf[frameOffCSI+8*k:], math.Float64bits(v))
	}
	return r.buf
}

// decode is the server's per-frame ingest: wire.ReadFrame off the byte
// stream, then wire.DecodeCSIReport.
func (r *frameReader) decode(frame []byte) (*spotfi.Packet, error) {
	r.rd.Reset(frame)
	f, err := wire.ReadFrame(&r.rd)
	if err != nil {
		return nil, err
	}
	return wire.DecodeCSIReport(f)
}

// burstOfSeq recovers the burst index from a packet sequence number.
func burstOfSeq(seq uint64) int { return int(seq >> seqBurstShift) }

// schedule lays the bursts out on an open-loop timeline. Burst b is due
// at (b+1)/rate seconds: the time of the target's last transmission. Its
// `batch` transmissions fall at seeded times over the preceding `overlap`
// burst periods, so the transmissions of `overlap` concurrent targets
// interleave in an order fixed by the seed. Every AP that hears the target
// reports a transmission at the same due time, in a seeded AP order.
func (t *traffic) schedule(rate float64, overlap int) {
	period := 1e9 / rate
	span := float64(overlap) * period
	rng := rand.New(rand.NewSource(mix(t.sc.seed, 5, int64(rate*1000), 0)))
	n := t.bursts * t.perBurst
	batch := t.sc.batch
	t.sched = make([]int64, t.bursts)
	due := make([]int64, n)
	rank := make([]int, n) // an AP's place within its transmission
	tx := make([]float64, batch)
	for b := 0; b < t.bursts; b++ {
		end := float64(b+1) * period
		t.sched[b] = int64(end)
		for k := range tx[:batch-1] {
			tx[k] = end - span*rng.Float64()
		}
		tx[batch-1] = end
		sort.Float64s(tx)
		for k, at := range tx {
			for r, a := range rng.Perm(apsPerTarget) {
				slot := b*t.perBurst + a*batch + k
				due[slot] = int64(at) // the first bursts start overdue, in the lead-in
				rank[slot] = r
			}
		}
	}
	t.order = make([]int32, n)
	for i := range t.order {
		t.order[i] = int32(i)
	}
	sort.SliceStable(t.order, func(i, j int) bool {
		a, b := t.order[i], t.order[j]
		if due[a] != due[b] {
			return due[a] < due[b]
		}
		return rank[a] < rank[b]
	})
	t.due = make([]int64, n)
	for i, slot := range t.order {
		t.due[i] = due[slot]
	}
}

// stampTime writes an absolute capture timestamp into frame i.
func (t *traffic) stampTime(i int, ns int64) {
	binary.LittleEndian.PutUint64(t.slot(i)[frameOffTime:], uint64(ns))
}

// decodeBurst decodes burst b's frames into the per-AP map the Localizer
// takes.
func (r *frameReader) decodeBurst(b int) (map[int][]*spotfi.Packet, error) {
	out := make(map[int][]*spotfi.Packet, apsPerTarget)
	for k := 0; k < r.t.perBurst; k++ {
		p, err := r.decode(r.frame(b*r.t.perBurst + k))
		if err != nil {
			return nil, err
		}
		out[p.APID] = append(out[p.APID], p)
	}
	return out, nil
}

// repeatShare is the share of bursts in ids whose CSI content repeats an
// earlier burst's.
func (t *traffic) repeatShare(ids []int) float64 {
	if len(ids) == 0 {
		return 0
	}
	seen := make(map[uint64]bool, len(ids))
	repeats := 0
	for _, b := range ids {
		if seen[t.hash[b]] {
			repeats++
		}
		seen[t.hash[b]] = true
	}
	return float64(repeats) / float64(len(ids))
}

// mix derives a per-purpose seed (splitmix64 finalizer).
func mix(seed, purpose, a, b int64) int64 {
	z := uint64(seed) ^ uint64(purpose+1)*0xD1B54A32D192ED03 ^
		uint64(a+1)*0x9E3779B97F4A7C15 ^ uint64(b+2)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & math.MaxInt64)
}
