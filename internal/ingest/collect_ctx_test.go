package ingest_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"igdb/internal/ingest"
)

// TestCollectCancelledBeforeStart: an already-cancelled context aborts the
// collection before any source is attempted.
func TestCollectCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := ingest.CollectWith(ctx, smallWorld(t), ingest.NewStore(""), time.Unix(1780000000, 0).UTC(), ingest.CollectOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(report.Results) != 0 {
		t.Fatalf("attempted %d sources after cancellation, want 0", len(report.Results))
	}
}

// TestCollectCancelInterruptsBackoff: cancelling mid-backoff returns
// promptly instead of sleeping out the remaining delay schedule. The
// backoff here is far longer than the test budget, and collection runs in
// a goroutine, so a backoff that ignores the context fails the test after
// 10 s instead of hanging until the package -timeout.
func TestCollectCancelInterruptsBackoff(t *testing.T) {
	w := smallWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ingest.CollectWith(ctx, w, ingest.NewStore(""), time.Unix(1780000000, 0).UTC(), ingest.CollectOptions{
			MaxAttempts: 5,
			BaseBackoff: time.Hour,
			MaxBackoff:  time.Hour,
			Intercept: func(source string, attempt int) error {
				return ingest.Transient(errors.New("injected"))
			},
		})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("collection still running 10s after cancellation; backoff ignored the context")
	}
}
