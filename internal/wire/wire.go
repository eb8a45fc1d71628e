// Package wire defines the AP→server protocol SpotFi's deployment uses: a
// versioned, length-prefixed binary framing over TCP carrying per-packet
// CSI reports (paper Sec. 3: "SpotFi only adds the software required to
// read the reported CSI values, timestamps, and MAC addresses at the AP and
// ships it to the central server").
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"spotfi/internal/csi"
)

// Frame types.
const (
	// TypeHello is the first frame on a connection: the AP announces its
	// ID.
	TypeHello uint8 = 1
	// TypeCSIReport carries one csi.Packet.
	TypeCSIReport uint8 = 2
	// TypeBye announces a clean shutdown.
	TypeBye uint8 = 3
)

const (
	frameMagic uint32 = 0x53465731 // "SFW1"
	// MaxFrameSize bounds payload length so a corrupt or malicious peer
	// cannot force unbounded allocation.
	MaxFrameSize = 1 << 20
)

// ErrBadFrame is returned for malformed frames.
var ErrBadFrame = errors.New("wire: malformed frame")

// Frame is one protocol unit.
type Frame struct {
	Type    uint8
	Payload []byte
}

// WriteFrame writes a frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFrameSize {
		return fmt.Errorf("wire: payload of %d bytes exceeds limit", len(f.Payload))
	}
	var hdr [9]byte
	binary.LittleEndian.PutUint32(hdr[0:4], frameMagic)
	hdr[4] = f.Type
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(f.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(f.Payload)
	return err
}

// ReadFrame reads the next frame from r. io.EOF is returned only at a
// clean frame boundary; mid-frame truncation surfaces as ErrBadFrame.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		// Keep the underlying error in the chain: callers distinguish
		// read deadlines (net.Error.Timeout) and connection resets
		// (io.ErrUnexpectedEOF, ECONNRESET) from structural garbage.
		return Frame{}, fmt.Errorf("%w: header: %w", ErrBadFrame, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != frameMagic {
		return Frame{}, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	length := binary.LittleEndian.Uint32(hdr[5:9])
	if length > MaxFrameSize {
		return Frame{}, fmt.Errorf("%w: payload length %d exceeds limit", ErrBadFrame, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, fmt.Errorf("%w: payload: %w", ErrBadFrame, err)
	}
	return Frame{Type: hdr[4], Payload: payload}, nil
}

// EncodeHello builds a Hello frame payload.
func EncodeHello(apID int32) Frame {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(apID))
	return Frame{Type: TypeHello, Payload: buf[:]}
}

// DecodeHello parses a Hello payload.
func DecodeHello(f Frame) (int32, error) {
	if f.Type != TypeHello || len(f.Payload) != 4 {
		return 0, fmt.Errorf("%w: not a hello frame", ErrBadFrame)
	}
	return int32(binary.LittleEndian.Uint32(f.Payload)), nil
}

// EncodeCSIReport serializes a packet into a CSI-report frame.
func EncodeCSIReport(p *csi.Packet) (Frame, error) {
	if err := p.Validate(); err != nil {
		return Frame{}, err
	}
	var buf bytes.Buffer
	hdr := struct {
		APID        int32
		Seq         uint64
		TimestampNs int64
		RSSI        float64
		MACLen      uint16
		Antennas    uint16
		Subcarriers uint16
	}{
		int32(p.APID), p.Seq, p.TimestampNs, p.RSSIdBm,
		uint16(len(p.TargetMAC)), uint16(p.CSI.Antennas()), uint16(p.CSI.Subcarriers()),
	}
	if err := binary.Write(&buf, binary.LittleEndian, hdr); err != nil {
		return Frame{}, err
	}
	buf.WriteString(p.TargetMAC)
	for _, row := range p.CSI.Values {
		for _, v := range row {
			if err := binary.Write(&buf, binary.LittleEndian, [2]float64{real(v), imag(v)}); err != nil {
				return Frame{}, err
			}
		}
	}
	if buf.Len() > MaxFrameSize {
		return Frame{}, fmt.Errorf("wire: CSI report of %d bytes exceeds frame limit", buf.Len())
	}
	return Frame{Type: TypeCSIReport, Payload: buf.Bytes()}, nil
}

// reportHeaderSize is the fixed prefix of a CSI report, as
// EncodeCSIReport writes it: APID int32, Seq uint64, TimestampNs int64,
// RSSI float64, then MACLen, Antennas and Subcarriers uint16.
const reportHeaderSize = 34

// DecodeCSIReport parses a CSI-report frame back into a packet. It reads
// the payload in place: the packet, its matrix and the MAC string are its
// only allocations.
func DecodeCSIReport(f Frame) (*csi.Packet, error) {
	if f.Type != TypeCSIReport {
		return nil, fmt.Errorf("%w: not a CSI report", ErrBadFrame)
	}
	b := f.Payload
	if len(b) < reportHeaderSize {
		return nil, fmt.Errorf("%w: report header: %d of %d bytes", ErrBadFrame, len(b), reportHeaderSize)
	}
	le := binary.LittleEndian
	macLen := int(le.Uint16(b[28:]))
	antennas, subcarriers := int(le.Uint16(b[30:])), int(le.Uint16(b[32:]))
	if antennas == 0 || subcarriers == 0 {
		return nil, fmt.Errorf("%w: zero CSI dims", ErrBadFrame)
	}
	body := b[reportHeaderSize:]
	want := macLen + antennas*subcarriers*16
	if len(body) != want {
		return nil, fmt.Errorf("%w: payload size %d, want %d", ErrBadFrame, len(body), want)
	}
	m := csi.NewMatrix(antennas, subcarriers)
	vals := body[macLen:]
	for _, row := range m.Values {
		for n := range row {
			row[n] = complex(math.Float64frombits(le.Uint64(vals)), math.Float64frombits(le.Uint64(vals[8:])))
			vals = vals[16:]
		}
	}
	p := &csi.Packet{
		APID:        int(int32(le.Uint32(b))),
		Seq:         le.Uint64(b[4:]),
		TimestampNs: int64(le.Uint64(b[12:])),
		RSSIdBm:     math.Float64frombits(le.Uint64(b[20:])),
		TargetMAC:   string(body[:macLen]),
		CSI:         m,
	}
	if err := p.Validate(); err != nil {
		if errors.Is(err, csi.ErrNonFinite) {
			// A well-framed report carrying NaN/Inf is a value problem
			// (buggy NIC, injected chaos), not a desynced stream: surface
			// it as ErrNonFinite — not ErrBadFrame — so the server drops
			// the packet and keeps the connection.
			return nil, fmt.Errorf("wire: %w", err)
		}
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return p, nil
}
