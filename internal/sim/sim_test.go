package sim

import (
	"testing"
	"time"
)

func TestEventsRunInTimestampOrder(t *testing.T) {
	e := New()
	var order []int
	_ = e.At(3*time.Second, func(time.Duration) { order = append(order, 3) })
	_ = e.At(1*time.Second, func(time.Duration) { order = append(order, 1) })
	_ = e.At(2*time.Second, func(time.Duration) { order = append(order, 2) })
	e.Run(time.Minute)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		_ = e.At(time.Second, func(time.Duration) { order = append(order, i) })
	}
	e.Run(time.Minute)
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO broken: %v", order)
		}
	}
}

func TestSchedulingInPastFails(t *testing.T) {
	e := New()
	_ = e.At(5*time.Second, func(now time.Duration) {
		if err := e.At(time.Second, func(time.Duration) {}); err == nil {
			t.Error("scheduling in the past must fail")
		}
	})
	e.Run(time.Minute)
}

func TestNilCallbackFails(t *testing.T) {
	e := New()
	if err := e.At(time.Second, nil); err == nil {
		t.Fatal("want error for nil callback")
	}
}

func TestClockAdvances(t *testing.T) {
	e := New()
	var at time.Duration
	_ = e.At(7*time.Second, func(now time.Duration) { at = now })
	end := e.Run(time.Minute)
	if at != 7*time.Second {
		t.Fatalf("callback saw now=%v", at)
	}
	if end != time.Minute {
		t.Fatalf("Run returned %v, want horizon", end)
	}
	if e.Now() != time.Minute {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestHorizonStopsEvents(t *testing.T) {
	e := New()
	ran := false
	_ = e.At(2*time.Minute, func(time.Duration) { ran = true })
	e.Run(time.Minute)
	if ran {
		t.Fatal("event past horizon must not run")
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := New()
	var seen []time.Duration
	_ = e.At(10*time.Second, func(now time.Duration) {
		_ = e.After(5*time.Second, func(now2 time.Duration) { seen = append(seen, now2) })
	})
	e.Run(time.Minute)
	if len(seen) != 1 || seen[0] != 15*time.Second {
		t.Fatalf("seen = %v", seen)
	}
	// Negative delay clamps to now.
	e2 := New()
	_ = e2.After(-time.Second, func(now time.Duration) {
		if now != 0 {
			t.Errorf("clamped delay ran at %v", now)
		}
	})
	e2.Run(time.Second)
}

func TestEveryPeriodic(t *testing.T) {
	e := New()
	var ticks []time.Duration
	err := e.Every(0, 10*time.Second, time.Minute, func(now time.Duration) bool {
		ticks = append(ticks, now)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(time.Minute)
	if len(ticks) != 7 { // 0,10,...,60
		t.Fatalf("ticks = %v", ticks)
	}
}

func TestEveryStopsWhenCallbackReturnsFalse(t *testing.T) {
	e := New()
	n := 0
	_ = e.Every(0, time.Second, time.Minute, func(time.Duration) bool {
		n++
		return n < 3
	})
	e.Run(time.Minute)
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
}

func TestEveryValidation(t *testing.T) {
	e := New()
	if err := e.Every(0, 0, time.Minute, func(time.Duration) bool { return true }); err == nil {
		t.Fatal("want error for zero period")
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := New()
	n := 0
	_ = e.Every(0, time.Second, time.Hour, func(time.Duration) bool {
		n++
		if n == 5 {
			e.Stop()
		}
		return true
	})
	e.Run(time.Hour)
	if n != 5 {
		t.Fatalf("ran %d ticks, want stop at 5", n)
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := New()
	depth := 0
	var rec func(now time.Duration)
	rec = func(now time.Duration) {
		depth++
		if depth < 10 {
			_ = e.After(time.Second, rec)
		}
	}
	_ = e.At(0, rec)
	e.Run(time.Minute)
	if depth != 10 {
		t.Fatalf("depth = %d", depth)
	}
}
