package limits

import (
	"context"
	"errors"
	"testing"
)

func TestResourceLimitErrorIs(t *testing.T) {
	err := error(&ResourceLimitError{Kind: KindFacts, Limit: 10, Used: 11, Component: "engine"})
	if !errors.Is(err, ErrResourceLimit) {
		t.Errorf("errors.Is(%v, ErrResourceLimit) = false", err)
	}
	var rle *ResourceLimitError
	if !errors.As(err, &rle) || rle.Kind != KindFacts {
		t.Errorf("errors.As failed or wrong kind: %+v", rle)
	}
	if errors.Is(err, context.Canceled) {
		t.Error("resource-limit error must not match context.Canceled")
	}
}

func TestCanceledErrorUnwraps(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := error(&CanceledError{Component: "engine", Cause: context.Cause(ctx)})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(%v, context.Canceled) = false", err)
	}
}

func TestNilCheckerIsNoop(t *testing.T) {
	var c *Checker
	if err := c.Check(); err != nil {
		t.Errorf("nil.Check() = %v", err)
	}
	for i := 0; i < 3*DefaultCheckInterval; i++ {
		if err := c.Tick(); err != nil {
			t.Fatalf("nil.Tick() = %v", err)
		}
	}
	if err := c.TickN(3 * DefaultCheckInterval); err != nil {
		t.Errorf("nil.TickN() = %v", err)
	}
}

func TestNewCheckerBackgroundIsNil(t *testing.T) {
	if c := NewChecker(context.Background(), "engine"); c != nil {
		t.Error("NewChecker(Background) should be nil (never cancelable)")
	}
	if c := NewChecker(nil, "engine"); c != nil {
		t.Error("NewChecker(nil) should be nil")
	}
}

func TestCheckerObservesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewChecker(ctx, "engine")
	if c == nil {
		t.Fatal("NewChecker returned nil for cancelable context")
	}
	if err := c.Check(); err != nil {
		t.Fatalf("Check before cancel: %v", err)
	}
	cancel()
	err := c.Check()
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Check after cancel = %v, want context.Canceled", err)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) || ce.Component != "engine" {
		t.Errorf("want *CanceledError with component engine, got %#v", err)
	}
}

func TestTickPollsEveryInterval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewChecker(ctx, "engine")
	cancel()
	var err error
	for i := 0; i < DefaultCheckInterval; i++ {
		if err = c.Tick(); err != nil {
			break
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Tick never observed cancellation within one interval: %v", err)
	}
}
