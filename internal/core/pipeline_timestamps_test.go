package core

import (
	"math"
	"testing"

	"vihot/internal/camera"
	"vihot/internal/imu"
)

// Timestamp-discipline tests: a lossy or hostile wire delivers the
// same sample twice, out of order, or with a poisoned timestamp, and
// the pipeline must shrug it off deterministically — the polluted
// stream produces exactly the estimates of the clean one.

// cleanPhase is the well-behaved CSI stream both pipelines share.
func cleanPhase(ts float64) float64 {
	theta := 80 * math.Sin(2*math.Pi*ts/4)
	return -1 + 0.8*math.Sin(theta*math.Pi/180)
}

func TestPushCSITimestampDiscipline(t *testing.T) {
	clean := newTestPipeline(t, DefaultPipelineConfig())
	dirty := newTestPipeline(t, DefaultPipelineConfig())

	var want, got []Estimate
	for i := 0; i < 2000; i++ {
		ts := float64(i) * 0.002
		phi := cleanPhase(ts)
		if est, ok := clean.PushCSI(ts, phi); ok {
			want = append(want, est)
		}
		// The dirty pipeline sees the same sample plus wire garbage:
		// an exact duplicate, a stale replay, and periodic poisoned
		// values. None may change its output.
		if est, ok := dirty.PushCSI(ts, phi); ok {
			got = append(got, est)
		}
		if _, ok := dirty.PushCSI(ts, phi); ok { // duplicate
			t.Fatalf("duplicate sample at t=%v produced an estimate", ts)
		}
		if i > 10 {
			if _, ok := dirty.PushCSI(ts-0.02, cleanPhase(ts-0.02)); ok { // reordered straggler
				t.Fatalf("stale replay at t=%v produced an estimate", ts)
			}
		}
		switch i % 500 {
		case 100:
			if _, ok := dirty.PushCSI(math.NaN(), phi); ok {
				t.Fatal("NaN timestamp produced an estimate")
			}
		case 200:
			if _, ok := dirty.PushCSI(ts+0.001, math.Inf(1)); ok {
				t.Fatal("Inf phase produced an estimate")
			}
			// NOTE: the Inf-phase sample's timestamp must NOT have been
			// adopted — the next clean sample at ts+0.002 still flows.
		case 300:
			if _, ok := dirty.PushCSI(-ts-1, phi); ok {
				t.Fatal("backwards timestamp produced an estimate")
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("clean pipeline produced no estimates")
	}
	if len(got) != len(want) {
		t.Fatalf("dirty pipeline produced %d estimates, clean produced %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("estimate %d diverged: dirty %+v, clean %+v", i, got[i], want[i])
		}
	}
}

// TestPushCSIInfPhaseDoesNotAdvanceClock pins the subtle half of the
// guard: a sample rejected for a non-finite value must not move the
// monotone watermark, or it would censor the next legitimate sample.
func TestPushCSIInfPhaseDoesNotAdvanceClock(t *testing.T) {
	pl := newTestPipeline(t, DefaultPipelineConfig())
	pl.PushCSI(1.0, 0.1)
	if _, ok := pl.PushCSI(2.0, math.NaN()); ok {
		t.Fatal("NaN phase produced an estimate")
	}
	// 1.5 < 2.0: if the poisoned sample advanced the watermark this
	// legitimate sample would be dropped. It must reach the tracker —
	// prove it by checking a duplicate of it IS then rejected.
	pl.PushCSI(1.5, 0.1)
	if _, ok := pl.PushCSI(1.5, 0.1); ok {
		t.Fatal("duplicate accepted: 1.5 was never adopted as the watermark")
	}
}

func TestPushIMUTimestampDiscipline(t *testing.T) {
	clean := newTestPipeline(t, DefaultPipelineConfig())
	dirty := newTestPipeline(t, DefaultPipelineConfig())

	// Drive both into a turn, but feed the dirty one duplicated,
	// reordered, and non-finite readings alongside.
	for i := 0; i <= 200; i++ {
		ts := float64(i) * 0.01
		gyro := 25.0
		if ts >= 1 {
			gyro = 0
		}
		r := imu.Reading{Time: ts, GyroZ: gyro}
		clean.PushIMU(r)
		dirty.PushIMU(r)
		dirty.PushIMU(r)                                         // duplicate
		dirty.PushIMU(imu.Reading{Time: ts - 0.05, GyroZ: -40})  // stale replay, wild value
		dirty.PushIMU(imu.Reading{Time: math.NaN(), GyroZ: 25})  // poisoned clock
		dirty.PushIMU(imu.Reading{Time: ts, GyroZ: math.Inf(1)}) // poisoned value
		if clean.Steering() != dirty.Steering() {
			t.Fatalf("steering state diverged at t=%v: clean=%v dirty=%v",
				ts, clean.Steering(), dirty.Steering())
		}
	}
}

func TestPushCameraTimestampDiscipline(t *testing.T) {
	pl := newTestPipeline(t, DefaultPipelineConfig())
	pl.PushCamera(camera.Estimate{Time: 0.5, Yaw: 12, Valid: true})
	// Wire garbage after the good frame: duplicates and stale replays
	// carrying wild yaws, plus poisoned values. All must be ignored.
	pl.PushCamera(camera.Estimate{Time: 0.5, Yaw: 99, Valid: true})
	pl.PushCamera(camera.Estimate{Time: 0.2, Yaw: -77, Valid: true})
	pl.PushCamera(camera.Estimate{Time: math.NaN(), Yaw: 1, Valid: true})
	pl.PushCamera(camera.Estimate{Time: 0.6, Yaw: math.Inf(-1), Valid: true})

	for ts := 0.0; ts < 1; ts += 0.01 {
		pl.PushIMU(imu.Reading{Time: ts, GyroZ: 25})
	}
	if !pl.Steering() {
		t.Fatal("turn not detected")
	}
	got, ok := pl.PushCSI(1.0, 0.3)
	if !ok {
		t.Fatal("no fallback estimate during turn")
	}
	if got.Yaw != 12 {
		t.Fatalf("fallback used a replayed/poisoned camera frame: yaw=%v, want 12", got.Yaw)
	}
}
