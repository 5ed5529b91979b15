package wifi

import (
	"math"
	"testing"

	"vihot/internal/csi"
	"vihot/internal/imu"
)

// FuzzWireDecode throws arbitrary datagrams at the wire decoder. It
// must never panic, and any packet it accepts must satisfy the wire
// contract: a known type, exactly one payload set, a CSI shape within
// the encoder's bounds (so a decoded frame always re-encodes).
func FuzzWireDecode(f *testing.F) {
	// Seed with valid packets and systematic truncations of each.
	frame := &csi.Frame{Time: 1.5, H: [][]complex128{
		{1 + 2i, 3 - 4i, complex(math.NaN(), 0)},
		{-1, 0.5i, 2},
	}}
	csiPkt, err := EncodeCSI(nil, frame)
	if err != nil {
		f.Fatal(err)
	}
	imuPkt := EncodeIMU(nil, &imu.Reading{Time: 2.5, GyroZ: -3, AccelLat: 0.25})
	for _, pkt := range [][]byte{csiPkt, imuPkt} {
		for _, n := range []int{0, 4, 5, 6, headerLen - 1, headerLen, headerLen + 1, len(pkt) - 1, len(pkt)} {
			if n >= 0 && n <= len(pkt) {
				f.Add(append([]byte(nil), pkt[:n]...))
			}
		}
	}
	// Bad magic, bad version, bad type, hostile shape bytes.
	bad := append([]byte(nil), csiPkt...)
	bad[0] = 'X'
	f.Add(bad)
	bad = append([]byte(nil), csiPkt...)
	bad[4] = 99
	f.Add(bad)
	bad = append([]byte(nil), csiPkt...)
	bad[5] = 77
	f.Add(bad)
	bad = append([]byte(nil), csiPkt...)
	bad[headerLen] = 255 // antenna count way past maxAntennas
	f.Add(bad)
	// Trailing garbage after an exact CSI payload, and a shape field
	// shrunk so the true payload reads as a tail — both must be
	// rejected (ErrTrailingBytes), never decoded as a smaller frame.
	f.Add(append(append([]byte(nil), csiPkt...), 0xde, 0xad, 0xbe, 0xef))
	bad = append([]byte(nil), csiPkt...)
	bad[headerLen+1] = 2 // claims 2 subcarriers; 3 are on the wire
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := Decode(data)
		// The pooled decoder must agree with the heap decoder exactly:
		// same accept/reject verdict, same decoded contents.
		pp, perr := DecodePooled(data)
		if (err == nil) != (perr == nil) {
			t.Fatalf("Decode err=%v but DecodePooled err=%v", err, perr)
		}
		if pp != nil && pp.CSI != nil {
			if pkt.CSI == nil {
				t.Fatal("pooled decode produced CSI where heap decode did not")
			}
			pt, ht := pp.CSI.Time, pkt.CSI.Time
			if (pt != ht && (pt == pt || ht == ht)) || len(pp.CSI.H) != len(pkt.CSI.H) {
				t.Fatalf("pooled/heap decode disagree: %+v vs %+v", pp.CSI, pkt.CSI)
			}
			for a := range pp.CSI.H {
				for k := range pp.CSI.H[a] {
					pv, hv := pp.CSI.H[a][k], pkt.CSI.H[a][k]
					// NaN != NaN; compare bit patterns via self-equality.
					if pv != hv && (pv == pv || hv == hv) {
						t.Fatalf("pooled/heap cell [%d][%d] disagree: %v vs %v", a, k, pv, hv)
					}
				}
			}
			csi.PutFrame(pp.CSI)
		}
		if err != nil {
			if pkt != nil {
				t.Fatalf("Decode returned both a packet and error %v", err)
			}
			return
		}
		switch pkt.Type {
		case TypeCSI:
			if pkt.CSI == nil || pkt.IMU != nil {
				t.Fatalf("CSI packet with wrong payloads set: %+v", pkt)
			}
			na, ns := pkt.CSI.NAntennas(), pkt.CSI.NSubcarriers()
			if na < 1 || na > maxAntennas || ns < 1 || ns > maxSubcarry {
				t.Fatalf("decoded CSI shape %dx%d outside wire bounds", na, ns)
			}
			for a, row := range pkt.CSI.H {
				if len(row) != ns {
					t.Fatalf("antenna %d has %d subcarriers, want %d", a, len(row), ns)
				}
			}
			if _, err := EncodeCSI(nil, pkt.CSI); err != nil {
				t.Fatalf("decoded CSI frame does not re-encode: %v", err)
			}
		case TypeIMU:
			if pkt.IMU == nil || pkt.CSI != nil {
				t.Fatalf("IMU packet with wrong payloads set: %+v", pkt)
			}
		default:
			t.Fatalf("Decode accepted unknown type %d", pkt.Type)
		}
	})
}
