package client

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"sigstream"
	"sigstream/internal/server"
)

func newPair(t *testing.T) *Client {
	t.Helper()
	srv := httptest.NewServer(server.New(server.Config{
		MemoryBytes: 64 << 10,
		Weights:     sigstream.Weights{Alpha: 1, Beta: 10},
		Shards:      2,
	}))
	t.Cleanup(srv.Close)
	return New(srv.URL, srv.Client())
}

func TestClientRoundTrip(t *testing.T) {
	c := newPair(t)
	ctx := context.Background()
	n, err := c.Default().Insert(ctx, "a", "a", "b")
	if err != nil || n != 3 {
		t.Fatalf("Insert = %d, %v", n, err)
	}
	p, err := c.Default().EndPeriod(ctx)
	if err != nil || p != 1 {
		t.Fatalf("EndPeriod = %d, %v", p, err)
	}
	e, err := c.Default().Query(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if e.Frequency != 2 || e.Persistency != 1 {
		t.Fatalf("a: %+v", e)
	}
	top, err := c.Default().TopK(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].Key != "a" {
		t.Fatalf("TopK = %+v", top)
	}
	st, err := c.Default().Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Arrivals != 3 || st.Periods != 1 || st.Beta != 10 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestClientNotTracked(t *testing.T) {
	c := newPair(t)
	ctx := context.Background()
	if _, err := c.Default().Query(ctx, "ghost"); !errors.Is(err, ErrNotTracked) {
		t.Fatalf("want ErrNotTracked, got %v", err)
	}
}

func TestClientCheckpointRestore(t *testing.T) {
	c := newPair(t)
	ctx := context.Background()
	c.Default().Insert(ctx, "x", "x", "y")
	c.Default().EndPeriod(ctx)
	img, err := c.Default().Checkpoint(ctx)
	if err != nil || len(img) == 0 {
		t.Fatalf("Checkpoint: %d bytes, %v", len(img), err)
	}
	// Mutate, restore, verify the state rolled back.
	c.Default().Insert(ctx, "z", "z", "z", "z")
	if err := c.Default().Restore(ctx, img); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Default().Query(ctx, "z"); !errors.Is(err, ErrNotTracked) {
		t.Fatal("z survived restore")
	}
	e, err := c.Default().Query(ctx, "x")
	if err != nil || e.Frequency != 2 {
		t.Fatalf("x after restore: %+v, %v", e, err)
	}
	// Garbage restore surfaces the server's 400.
	if err := c.Default().Restore(ctx, []byte("junk")); err == nil {
		t.Fatal("garbage restore accepted")
	}
}

// TestClientCheckpointIfChanged: a tag naming the tenant tracker's
// periods and arrivals downloads nothing; any other tag, or none, gets
// the full image.
func TestClientCheckpointIfChanged(t *testing.T) {
	c := newPair(t)
	ctx := context.Background()
	tn := c.Tenant("red")
	if _, err := tn.CheckpointIfChanged(ctx, sigstream.CheckpointTag(0, 0)); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("unknown namespace: %v, want 404", err)
	}
	tn.Insert(ctx, "x", "x", "y")
	tn.EndPeriod(ctx)
	img, err := tn.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dec := new(sigstream.Sharded)
	if err := dec.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	st := dec.Stats()
	tag := sigstream.CheckpointTag(st.Periods, st.Arrivals)
	if got, err := tn.CheckpointIfChanged(ctx, tag); !errors.Is(err, ErrNotModified) || got != nil {
		t.Fatalf("matching tag: %d bytes, %v; want ErrNotModified", len(got), err)
	}
	for _, other := range []string{"", sigstream.CheckpointTag(st.Periods, st.Arrivals+1), "*"} {
		got, err := tn.CheckpointIfChanged(ctx, other)
		if err != nil || !bytes.Equal(got, img) {
			t.Fatalf("tag %q: %d bytes, %v; want the %d-byte image", other, len(got), err, len(img))
		}
	}
	tn.Insert(ctx, "z")
	if got, err := tn.CheckpointIfChanged(ctx, tag); err != nil || bytes.Equal(got, img) {
		t.Fatalf("stale tag after an insert: %d bytes, %v; want the new image", len(got), err)
	}
}

// isStatus reports whether err is an *APIError with the given status.
func isStatus(err error, status int) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == status
}

// TestClientCheckpointShortBody: a body shorter than its declared length
// is an error, and a forged length past the preallocation cap costs no
// allocation of that size.
func TestClientCheckpointShortBody(t *testing.T) {
	for _, declared := range []int{1 << 30, 4096} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(declared))
			_, _ = w.Write([]byte("SLT3 not the whole image"))
		}))
		c := New(srv.URL, srv.Client())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		img, err := c.Tenant("red").Checkpoint(context.Background())
		runtime.ReadMemStats(&after)
		srv.Close()
		if err == nil {
			t.Fatalf("declared %d: short body accepted (%d bytes)", declared, len(img))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= maxImagePrealloc {
			t.Fatalf("declared %d: allocated %d bytes, want < %d", declared, grew, maxImagePrealloc)
		}
	}
}

func TestClientTenantScoped(t *testing.T) {
	c := newPair(t)
	ctx := context.Background()
	red, blue := c.Tenant("red"), c.Tenant("blue")
	if _, err := red.Insert(ctx, "a", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := blue.Insert(ctx, "z"); err != nil {
		t.Fatal(err)
	}
	if _, err := red.EndPeriod(ctx); err != nil {
		t.Fatal(err)
	}
	e, err := red.Query(ctx, "a")
	if err != nil || e.Frequency != 2 {
		t.Fatalf("red a: %+v, %v", e, err)
	}
	// Isolation: red's keys are invisible to blue.
	if _, err := blue.Query(ctx, "a"); !errors.Is(err, ErrNotTracked) {
		t.Fatalf("blue sees red's key: %v", err)
	}
	st, err := red.Stats(ctx)
	if err != nil || st.Tenant != "red" || st.Arrivals != 3 {
		t.Fatalf("red stats: %+v, %v", st, err)
	}
	list, err := c.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if list.Count != 3 { // default, red, blue
		t.Fatalf("tenant count %d, want 3", list.Count)
	}
	if err := c.DeleteTenant(ctx, "blue"); err != nil {
		t.Fatal(err)
	}
	if _, err := blue.Stats(ctx); err == nil {
		t.Fatal("deleted tenant still answers stats")
	}
	if err := c.CreateTenant(ctx, "green"); err != nil {
		t.Fatal(err)
	}
	// The legacy default handle and the scoped default handle see the
	// same tracker.
	if _, err := c.Tenant(DefaultNamespace).Insert(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	e, err = c.Default().Query(ctx, "k")
	if err != nil || e.Frequency != 1 {
		t.Fatalf("default via legacy routes: %+v, %v", e, err)
	}
}

func TestClientContextCancel(t *testing.T) {
	c := newPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Default().Insert(ctx, "a"); err == nil {
		t.Fatal("cancelled context produced no error")
	}
}

func TestClientBadBase(t *testing.T) {
	c := New("http://127.0.0.1:1", nil) // nothing listening
	if _, err := c.Default().Insert(context.Background(), "a"); err == nil {
		t.Fatal("dead endpoint produced no error")
	}
}
