package query

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"structix/internal/akindex"
	"structix/internal/gtest"
	"structix/internal/oneindex"
)

// Under a live context Eval and Count must agree exactly with their
// nil-context reads, and under a cancelled one fail fast with ctx.Err().
func TestSnapshotCtxEvaluators(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	one := oneindex.Build(g).Freeze(g.Freeze())
	ak := akindex.Build(g, 2).Freeze(g.Freeze())

	exprs := []string{"/a/b", "//c", "/e/b/c", "//b//c", "/a/*"}
	for _, expr := range exprs {
		c := MustCompile(MustParse(expr))

		want1, _ := c.Eval(nil, nil, nil, one)
		got1, err := c.Eval(context.Background(), nil, nil, one)
		if err != nil || !reflect.DeepEqual(want1, got1) {
			t.Errorf("%s: one ctx eval = %v, %v; want %v", expr, got1, err, want1)
		}
		wantC, _ := c.Count(nil, one)
		gotC, err := c.Count(context.Background(), one)
		if err != nil || gotC != wantC {
			t.Errorf("%s: one ctx count = %d, %v; want %d", expr, gotC, err, wantC)
		}

		wantAk, _ := c.Eval(nil, nil, nil, ak)
		gotAk, err := c.Eval(context.Background(), nil, nil, ak)
		if err != nil || !reflect.DeepEqual(wantAk, gotAk) {
			t.Errorf("%s: ak ctx eval = %v, %v; want %v", expr, gotAk, err, wantAk)
		}
		wantAC, _ := c.Count(nil, ak)
		gotAC, err := c.Count(context.Background(), ak)
		if err != nil || gotAC != wantAC {
			t.Errorf("%s: ak ctx count = %d, %v; want %d", expr, gotAC, err, wantAC)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, expr := range exprs {
		c := MustCompile(MustParse(expr))
		if out, err := c.Eval(ctx, nil, nil, one); !errors.Is(err, context.Canceled) || len(out) != 0 {
			t.Errorf("%s: cancelled one eval = %v, %v; want empty, Canceled", expr, out, err)
		}
		if _, err := c.Count(ctx, one); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled one count err = %v; want Canceled", expr, err)
		}
		if out, err := c.Eval(ctx, nil, nil, ak); !errors.Is(err, context.Canceled) || len(out) != 0 {
			t.Errorf("%s: cancelled ak eval = %v, %v; want empty, Canceled", expr, out, err)
		}
		if _, err := c.Count(ctx, ak); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled ak count err = %v; want Canceled", expr, err)
		}
	}
}

// countingCtx is a context cancelled as of the cancelAt-th call of Err:
// it cancels a read at each point the read checks, in turn.
type countingCtx struct {
	context.Context
	calls, cancelAt int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// A read cancelled at any of its checks — the last one too, after the
// final extent union — returns the error and no result: never a partial
// answer, and never the whole answer beside context.Canceled.
func TestSnapshotCtxLateCancel(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	one := oneindex.Build(g).Freeze(g.Freeze())
	ak := akindex.Build(g, 1).Freeze(g.Freeze())
	for _, expr := range []string{"/a/b", "//c", "/a/*", "/e/b/c"} {
		c := MustCompile(MustParse(expr))
		for _, s := range []struct {
			name string
			read func(context.Context) (int, error)
		}{
			{"one eval", func(ctx context.Context) (int, error) { out, err := c.Eval(ctx, nil, nil, one); return len(out), err }},
			{"ak eval", func(ctx context.Context) (int, error) { out, err := c.Eval(ctx, nil, nil, ak); return len(out), err }},
			{"one count", func(ctx context.Context) (int, error) { return c.Count(ctx, one) }},
			{"ak count", func(ctx context.Context) (int, error) { return c.Count(ctx, ak) }},
		} {
			live := &countingCtx{Context: context.Background(), cancelAt: 1 << 30}
			if _, err := s.read(live); err != nil {
				t.Fatalf("%s %s: live read: %v", expr, s.name, err)
			}
			if live.calls == 0 {
				t.Fatalf("%s %s: the read never checked its context", expr, s.name)
			}
			for at := 1; at <= live.calls; at++ {
				n, err := s.read(&countingCtx{Context: context.Background(), cancelAt: at})
				if !errors.Is(err, context.Canceled) || n != 0 {
					t.Errorf("%s %s cancelled at check %d of %d: %d results, %v; want 0, Canceled",
						expr, s.name, at, live.calls, n, err)
				}
			}
		}
	}
}

// A nil context must behave exactly like a live one, including with a
// nil (pooled) Scratch.
func TestSnapshotCtxNilContext(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	one := oneindex.Build(g).Freeze(g.Freeze())
	c := MustCompile(MustParse("//b/c"))
	want, _ := c.Eval(context.Background(), nil, nil, one)
	got, err := c.Eval(nil, nil, nil, one)
	if err != nil || !reflect.DeepEqual(want, got) {
		t.Fatalf("nil ctx eval = %v, %v; want %v", got, err, want)
	}
}
