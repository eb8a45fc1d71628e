package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"spotfi/internal/csi"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must never
// panic or allocate unboundedly, only return frames or errors.
func FuzzReadFrame(f *testing.F) {
	// Seed with a valid frame stream and some corruptions. CI extends the
	// file corpus with production frames exported from flight-recorder
	// bundles (spotfi-trace corpus).
	var buf bytes.Buffer
	WriteFrame(&buf, EncodeHello(3))
	WriteFrame(&buf, Frame{Type: TypeBye})
	f.Add(buf.Bytes())
	rng := rand.New(rand.NewSource(2))
	m := csi.NewMatrix(3, 30)
	for a := range m.Values {
		for n := range m.Values[a] {
			m.Values[a][n] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	if fr, err := EncodeCSIReport(&csi.Packet{
		APID: 2, TargetMAC: "02:bb", Seq: 7, TimestampNs: 12345, RSSIdBm: -52, CSI: m,
	}); err == nil {
		buf.Reset()
		WriteFrame(&buf, fr)
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x57, 0x46, 0x53})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; i < 16; i++ { // bounded frames per input
			fr, err := ReadFrame(r)
			if err != nil {
				return
			}
			if len(fr.Payload) > MaxFrameSize {
				t.Fatalf("oversize payload escaped: %d", len(fr.Payload))
			}
		}
	})
}

// FuzzDecodeCSIReport feeds arbitrary payloads to the report decoder: it
// must never panic, must return only valid packets, and must agree with
// decodeReference — the reflection-based decoder it replaced — on the
// packet bits and on the error class.
func FuzzDecodeCSIReport(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	m := csi.NewMatrix(3, 30)
	for a := range m.Values {
		for n := range m.Values[a] {
			m.Values[a][n] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	good, err := EncodeCSIReport(&csi.Packet{
		APID: 1, TargetMAC: "02:aa", RSSIdBm: -40, CSI: m,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good.Payload)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x41}, 100))
	f.Add(good.Payload[:20])                  // truncated header
	f.Add(good.Payload[:len(good.Payload)-1]) // truncated values
	f.Add(append(append([]byte(nil), good.Payload...), 0))
	nan := append([]byte(nil), good.Payload...)
	binary.LittleEndian.PutUint64(nan[reportHeaderSize+5+16:], math.Float64bits(math.NaN()))
	f.Add(nan) // well framed, non-finite value
	noMAC := append([]byte(nil), good.Payload[:reportHeaderSize]...)
	noMAC[28], noMAC[29] = 0, 0
	f.Add(append(noMAC, good.Payload[reportHeaderSize+5:]...)) // empty MAC

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeCSIReport(Frame{Type: TypeCSIReport, Payload: data})
		ref, refErr := decodeReference(data)
		if (err == nil) != (refErr == nil) ||
			errors.Is(err, ErrBadFrame) != errors.Is(refErr, ErrBadFrame) ||
			errors.Is(err, csi.ErrNonFinite) != errors.Is(refErr, csi.ErrNonFinite) {
			t.Fatalf("decoder error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !samePacket(p, ref) {
			t.Fatalf("decoder returned %+v, reference %+v", p, ref)
		}
		// Any successfully decoded packet must be valid.
		if verr := p.Validate(); verr != nil {
			t.Fatalf("decoder returned invalid packet: %v", verr)
		}
	})
}

// decodeReference is the reflection-based CSI-report decoder
// DecodeCSIReport replaced, kept as its oracle: one binary.Read for the
// header and one per CSI value.
func decodeReference(payload []byte) (*csi.Packet, error) {
	r := bytes.NewReader(payload)
	var hdr struct {
		APID        int32
		Seq         uint64
		TimestampNs int64
		RSSI        float64
		MACLen      uint16
		Antennas    uint16
		Subcarriers uint16
	}
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("%w: report header: %v", ErrBadFrame, err)
	}
	if hdr.Antennas == 0 || hdr.Subcarriers == 0 {
		return nil, fmt.Errorf("%w: zero CSI dims", ErrBadFrame)
	}
	want := int(hdr.MACLen) + int(hdr.Antennas)*int(hdr.Subcarriers)*16
	if r.Len() != want {
		return nil, fmt.Errorf("%w: payload size %d, want %d", ErrBadFrame, r.Len(), want)
	}
	mac := make([]byte, hdr.MACLen)
	if _, err := io.ReadFull(r, mac); err != nil {
		return nil, fmt.Errorf("%w: MAC: %v", ErrBadFrame, err)
	}
	m := csi.NewMatrix(int(hdr.Antennas), int(hdr.Subcarriers))
	var pair [2]float64
	for a := 0; a < int(hdr.Antennas); a++ {
		for n := 0; n < int(hdr.Subcarriers); n++ {
			if err := binary.Read(r, binary.LittleEndian, &pair); err != nil {
				return nil, fmt.Errorf("%w: CSI values: %v", ErrBadFrame, err)
			}
			m.Values[a][n] = complex(pair[0], pair[1])
		}
	}
	p := &csi.Packet{
		APID:        int(hdr.APID),
		Seq:         hdr.Seq,
		TimestampNs: hdr.TimestampNs,
		RSSIdBm:     hdr.RSSI,
		TargetMAC:   string(mac),
		CSI:         m,
	}
	if err := p.Validate(); err != nil {
		if errors.Is(err, csi.ErrNonFinite) {
			return nil, fmt.Errorf("wire: %w", err)
		}
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return p, nil
}

// samePacket reports whether a and b carry the same fields and the same
// CSI bits.
func samePacket(a, b *csi.Packet) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.APID != b.APID || a.Seq != b.Seq || a.TimestampNs != b.TimestampNs ||
		!same(a.RSSIdBm, b.RSSIdBm) || a.TargetMAC != b.TargetMAC ||
		a.CSI.Antennas() != b.CSI.Antennas() || a.CSI.Subcarriers() != b.CSI.Subcarriers() {
		return false
	}
	for i, row := range a.CSI.Values {
		for n, v := range row {
			w := b.CSI.Values[i][n]
			if !same(real(v), real(w)) || !same(imag(v), imag(w)) {
				return false
			}
		}
	}
	return true
}
