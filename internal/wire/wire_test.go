package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"spotfi/internal/csi"
)

func testPacket(rng *rand.Rand) *csi.Packet {
	m := csi.NewMatrix(3, 30)
	for a := range m.Values {
		for n := range m.Values[a] {
			m.Values[a][n] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return &csi.Packet{
		APID: 4, TargetMAC: "02:00:00:00:00:07", Seq: 42,
		TimestampNs: 123456789, RSSIdBm: -55.25, CSI: m,
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		EncodeHello(7),
		{Type: TypeBye, Payload: nil},
		{Type: TypeCSIReport, Payload: []byte{1, 2, 3}},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected io.EOF at end, got %v", err)
	}
}

func TestFrameBadMagic(t *testing.T) {
	data := []byte{9, 9, 9, 9, 1, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(data)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: TypeBye, Payload: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(data)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated frame err = %v", err)
	}
}

func TestFrameTruncatedHeader(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader([]byte{0x31})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated header err = %v", err)
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	// Writer side.
	if err := WriteFrame(io.Discard, Frame{Type: TypeBye, Payload: make([]byte, MaxFrameSize+1)}); err == nil {
		t.Fatal("oversize payload written")
	}
	// Reader side: forge a header claiming a huge payload.
	var hdr [9]byte
	copy(hdr[0:4], []byte{0x31, 0x57, 0x46, 0x53})
	hdr[4] = TypeBye
	hdr[5], hdr[6], hdr[7], hdr[8] = 0xff, 0xff, 0xff, 0x7f
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversize read err = %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	f := EncodeHello(12345)
	id, err := DecodeHello(f)
	if err != nil {
		t.Fatal(err)
	}
	if id != 12345 {
		t.Fatalf("hello id = %d", id)
	}
	if _, err := DecodeHello(Frame{Type: TypeBye}); !errors.Is(err, ErrBadFrame) {
		t.Fatal("non-hello frame decoded")
	}
	if _, err := DecodeHello(Frame{Type: TypeHello, Payload: []byte{1}}); !errors.Is(err, ErrBadFrame) {
		t.Fatal("short hello decoded")
	}
}

func TestCSIReportRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	want := testPacket(rng)
	f, err := EncodeCSIReport(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCSIReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.APID != want.APID || got.Seq != want.Seq || got.TimestampNs != want.TimestampNs ||
		got.RSSIdBm != want.RSSIdBm || got.TargetMAC != want.TargetMAC {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	for a := range want.CSI.Values {
		for n := range want.CSI.Values[a] {
			if got.CSI.Values[a][n] != want.CSI.Values[a][n] {
				t.Fatalf("CSI mismatch at (%d,%d)", a, n)
			}
		}
	}
}

func TestCSIReportOverTCPFraming(t *testing.T) {
	// Frame + report through a byte stream with multiple packets.
	rng := rand.New(rand.NewSource(102))
	var buf bytes.Buffer
	var want []*csi.Packet
	for i := 0; i < 10; i++ {
		p := testPacket(rng)
		p.Seq = uint64(i)
		want = append(want, p)
		f, err := EncodeCSIReport(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		f, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		p, err := DecodeCSIReport(f)
		if err != nil {
			t.Fatal(err)
		}
		if p.Seq != uint64(i) {
			t.Fatalf("out of order: seq %d at %d", p.Seq, i)
		}
	}
}

func TestCSIReportCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	f, err := EncodeCSIReport(testPacket(rng))
	if err != nil {
		t.Fatal(err)
	}
	// Wrong type.
	if _, err := DecodeCSIReport(Frame{Type: TypeHello, Payload: f.Payload}); !errors.Is(err, ErrBadFrame) {
		t.Fatal("wrong-type frame decoded")
	}
	// Truncated payload.
	short := Frame{Type: TypeCSIReport, Payload: f.Payload[:len(f.Payload)-5]}
	if _, err := DecodeCSIReport(short); !errors.Is(err, ErrBadFrame) {
		t.Fatal("truncated report decoded")
	}
	// Zero dimensions.
	bad := append([]byte(nil), f.Payload...)
	bad[30] = 0 // antennas (offset: 4+8+8+8+2 = 30)
	bad[31] = 0
	if _, err := DecodeCSIReport(Frame{Type: TypeCSIReport, Payload: bad}); !errors.Is(err, ErrBadFrame) {
		t.Fatal("zero-dim report decoded")
	}
}

// TestDecodeCSIReportAllocs pins the decoder's allocations: the packet,
// the matrix, its row slice and backing array, and the MAC string.
func TestDecodeCSIReportAllocs(t *testing.T) {
	f, err := EncodeCSIReport(testPacket(rand.New(rand.NewSource(104))))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeCSIReport(f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Fatalf("DecodeCSIReport allocates %.1f times per packet, want ≤ 5", allocs)
	}
}

func TestEncodeCSIReportRejectsInvalid(t *testing.T) {
	if _, err := EncodeCSIReport(&csi.Packet{TargetMAC: "x", RSSIdBm: -10}); err == nil {
		t.Fatal("nil-CSI packet encoded")
	}
}
