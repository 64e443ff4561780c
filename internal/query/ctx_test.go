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

// The Ctx evaluators must agree exactly with the plain evaluators under a
// live context, and fail fast with ctx.Err() under a cancelled one.
func TestSnapshotCtxEvaluators(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	one := oneindex.Build(g).Freeze(g.Freeze())
	ak := akindex.Build(g, 2).Freeze(g.Freeze())

	exprs := []string{"/a/b", "//c", "/e/b/c", "//b//c", "/a/*"}
	for _, expr := range exprs {
		p := MustParse(expr)

		want1 := EvalSnapshot(p, one)
		got1, err := EvalSnapshotCtx(context.Background(), p, one)
		if err != nil || !reflect.DeepEqual(want1, got1) {
			t.Errorf("%s: one ctx eval = %v, %v; want %v", expr, got1, err, want1)
		}
		wantC := CountSnapshot(p, one)
		gotC, err := CountSnapshotCtx(context.Background(), p, one)
		if err != nil || gotC != wantC {
			t.Errorf("%s: one ctx count = %d, %v; want %d", expr, gotC, err, wantC)
		}

		wantAk := EvalSnapshot(p, ak)
		gotAk, err := EvalSnapshotCtx(context.Background(), p, ak)
		if err != nil || !reflect.DeepEqual(wantAk, gotAk) {
			t.Errorf("%s: ak ctx eval = %v, %v; want %v", expr, gotAk, err, wantAk)
		}
		wantAC := CountSnapshot(p, ak)
		gotAC, err := CountSnapshotCtx(context.Background(), p, ak)
		if err != nil || gotAC != wantAC {
			t.Errorf("%s: ak ctx count = %d, %v; want %d", expr, gotAC, err, wantAC)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, expr := range exprs {
		p := MustParse(expr)
		if out, err := EvalSnapshotCtx(ctx, p, one); !errors.Is(err, context.Canceled) || len(out) != 0 {
			t.Errorf("%s: cancelled one eval = %v, %v; want empty, Canceled", expr, out, err)
		}
		if _, err := CountSnapshotCtx(ctx, p, one); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled one count err = %v; want Canceled", expr, err)
		}
		if out, err := EvalSnapshotCtx(ctx, p, ak); !errors.Is(err, context.Canceled) || len(out) != 0 {
			t.Errorf("%s: cancelled ak eval = %v, %v; want empty, Canceled", expr, out, err)
		}
		if _, err := CountSnapshotCtx(ctx, p, ak); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled ak count err = %v; want Canceled", expr, err)
		}
	}
}

// A nil context (what the non-Ctx entry points pass) must behave exactly
// like no context at all — including through the compiled buffer-reuse
// path with a nil (pooled) Scratch.
func TestSnapshotCtxNilContext(t *testing.T) {
	g, _, _, _ := gtest.Fig2()
	one := oneindex.Build(g).Freeze(g.Freeze())
	p := MustParse("//b/c")
	want := EvalSnapshot(p, one)
	got, err := MustCompile(p).EvalSnapshotIntoCtx(nil, nil, nil, one)
	if err != nil || !reflect.DeepEqual(want, got) {
		t.Fatalf("nil ctx eval = %v, %v; want %v", got, err, want)
	}
}
