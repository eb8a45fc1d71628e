package spotfi

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"slices"
	"testing"

	"spotfi/internal/csi"
	"spotfi/internal/testbed"
)

// burstFuzzBytes encodes m's components as little-endian float64s, real
// before imaginary, antenna-major: the input format FuzzProcessBurst reads.
func burstFuzzBytes(m *csi.Matrix) []byte {
	var out []byte
	for _, row := range m.Values {
		for _, v := range row {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(real(v)))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(imag(v)))
		}
	}
	return out
}

// FuzzProcessBurst feeds Localizer.ProcessBurst finite adversarial bursts
// on the office testbed's AP 0. The input is one CSI matrix, read from
// data's float64s (repeated cyclically when short), a packet count
// (1–16), an amplitude scale and a per-packet STO ramp: packet k is the
// matrix times scale, with subcarrier s turned by k·ramp·s radians. A
// burst with a non-finite entry is skipped. Every other burst must be
// rejected with an error or yield a report whose AoA, likelihood and
// eigen gap are finite; a panic fails. The burst also runs reversed, and
// both orders run again with the last packet's Seq set to the first's:
// each pair must give the same error text or bit-identical reports
// (sameReport). The seeds cover each adversarial
// shape: rank-1 (one noiseless path), identical packets, near zero
// (×1e-160, the covariance underflows), huge (×1e150), extreme STO ramps,
// and a single packet.
func FuzzProcessBurst(f *testing.F) {
	d := testbed.Office(1)
	cfg := DefaultConfig(d.Bounds)
	cfg.Workers = 1
	loc, err := New(cfg, deploymentAPs(d))
	if err != nil {
		f.Fatal(err)
	}
	real0, err := d.Burst(0, 0, 1)
	if err != nil {
		f.Fatal(err)
	}
	office := real0[0].CSI
	antennas, subcarriers := office.Antennas(), office.Subcarriers()
	plane := csi.NewMatrix(antennas, subcarriers)
	for a := range plane.Values {
		for s := range plane.Values[a] {
			plane.Values[a][s] = cmplx.Rect(0.8, -0.9*float64(a)-0.3*float64(s))
		}
	}
	f.Add(burstFuzzBytes(plane), uint8(9), 1.0, 0.0)      // rank-1, identical packets
	f.Add(burstFuzzBytes(plane), uint8(9), 1.0, 0.4)      // rank-1, each packet its own STO
	f.Add(burstFuzzBytes(office), uint8(9), 1.0, 0.0)     // identical packets
	f.Add(burstFuzzBytes(office), uint8(9), 1e-160, 0.02) // near zero
	f.Add(burstFuzzBytes(office), uint8(9), 1e150, 0.02)  // huge
	f.Add(burstFuzzBytes(office), uint8(9), 1.0, 3.1)     // extreme STO ramp, near π per subcarrier
	f.Add(burstFuzzBytes(office), uint8(9), 1.0, 1e9)     // extreme STO ramp, wrapped many times
	f.Add(burstFuzzBytes(office), uint8(0), 1.0, 0.0)     // a single packet
	f.Add(burstFuzzBytes(plane), uint8(0), 1e150, 0.0)    // a single huge rank-1 packet

	f.Fuzz(func(t *testing.T, data []byte, packets uint8, scale, ramp float64) {
		floats := len(data) / 8
		if floats == 0 {
			return
		}
		at := func(k int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(data[8*(k%floats):]))
		}
		burst := make([]*Packet, 1+int(packets%16))
		for k := range burst {
			m := csi.NewMatrix(antennas, subcarriers)
			i := 0
			for a := range m.Values {
				for s := range m.Values[a] {
					v := complex(at(i), at(i+1)) * complex(scale, 0) * cmplx.Rect(1, ramp*float64(k)*float64(s))
					if cmplx.IsNaN(v) || cmplx.IsInf(v) {
						return
					}
					m.Values[a][s] = v
					i += 2
				}
			}
			burst[k] = &Packet{APID: 0, Seq: uint64(k), RSSIdBm: -55, CSI: m}
		}
		bothOrders := func(tie bool) (*APReport, error) {
			rep, err := loc.ProcessBurst(0, burst)
			back := slices.Clone(burst)
			slices.Reverse(back)
			rev, rerr := loc.ProcessBurst(0, back)
			if !sameReport(rep, err, rev, rerr) {
				t.Fatalf("%d-packet burst (Seq tie %v): reversed order gives %+v, %v; given order %+v, %v",
					len(burst), tie, rev, rerr, rep, err)
			}
			return rep, err
		}
		rep, err := bothOrders(false)
		burst[len(burst)-1].Seq = burst[0].Seq
		bothOrders(true)
		if err != nil {
			return
		}
		for name, v := range map[string]float64{"AoA": rep.AoA, "likelihood": rep.Likelihood, "eigen gap": rep.EigenGapDB} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s = %v on a finite %d-packet burst", name, v, len(burst))
			}
		}
	})
}

// sameReport reports whether two ProcessBurst outcomes match: the same
// error text, or reports with bit-identical AoA, Likelihood, Margin,
// EigenGapDB and Candidates.
func sameReport(a *APReport, aerr error, b *APReport, berr error) bool {
	if aerr != nil || berr != nil {
		return aerr != nil && berr != nil && aerr.Error() == berr.Error()
	}
	bits := func(r *APReport) []uint64 {
		out := []uint64{math.Float64bits(r.AoA), math.Float64bits(r.Likelihood),
			math.Float64bits(r.Margin), math.Float64bits(r.EigenGapDB)}
		for _, c := range r.Candidates {
			out = append(out, math.Float64bits(c.AoA), math.Float64bits(c.ToF), math.Float64bits(c.Likelihood),
				uint64(c.Count), math.Float64bits(c.AoAVar), math.Float64bits(c.ToFVar),
				math.Float64bits(c.NormToF), math.Float64bits(c.MaxPower))
		}
		return out
	}
	return slices.Equal(bits(a), bits(b))
}
