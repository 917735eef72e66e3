package core

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/query"
	"repro/internal/synth"
)

// Graceful-shutdown tests: Serve must stop accepting on cancellation,
// drain whatever is in flight, and leave the store in a state where
// Snapshot + Close + reopen shows every acknowledged write and nothing
// torn — the same contract cmd/tvdp-server relies on for SIGTERM.

// startServe runs p.Serve on a kernel-assigned port and returns the base
// URL plus the channel Serve's return value lands on.
func startServe(t *testing.T, ctx context.Context, p *Platform, grace time.Duration) (string, <-chan error) {
	t.Helper()
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- p.Serve(ctx, ServeConfig{
			Addr:           "127.0.0.1:0",
			RequestTimeout: 10 * time.Second,
			ShutdownGrace:  grace,
			Ready:          func(a net.Addr) { addrCh <- a },
		})
	}()
	select {
	case a := <-addrCh:
		return "http://" + a.String(), done
	case err := <-done:
		t.Fatalf("Serve exited before binding: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never bound its listener")
	}
	return "", nil
}

func waitServe(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return after cancellation")
		return nil
	}
}

// TestServeStopsOnCancel is the quiet-path contract: no traffic, cancel,
// and Serve returns nil promptly.
func TestServeStopsOnCancel(t *testing.T) {
	p := openPlatform(t, "")
	ctx, cancel := context.WithCancel(context.Background())
	_, done := startServe(t, ctx, p, 5*time.Second)
	cancel()
	if err := waitServe(t, done); err != nil {
		t.Fatalf("Serve = %v, want nil (clean drain)", err)
	}
}

// TestServeGracefulShutdownDrainsInFlight fires concurrent uploads,
// cancels the serve context while they are on the wire, and checks the
// drain contract end to end: Serve returns nil, every upload the client
// saw acknowledged is durable across Snapshot + Close + reopen, and the
// reopened store serves reads — the programmatic twin of SIGTERM-ing a
// loaded tvdp-server.
func TestServeGracefulShutdownDrainsInFlight(t *testing.T) {
	dir := t.TempDir()
	p := openPlatform(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, done := startServe(t, ctx, p, 10*time.Second)

	boot := api.NewClient(base, "")
	uid, err := boot.CreateUser("lasan", "government")
	if err != nil {
		t.Fatal(err)
	}
	key, err := boot.CreateKey(uid)
	if err != nil {
		t.Fatal(err)
	}
	c := api.NewClient(base, key)

	g, err := synth.NewGenerator(synth.DefaultConfig(8, 11))
	if err != nil {
		t.Fatal(err)
	}
	recs := g.Generate(8)
	upload := func(i int) (uint64, error) {
		resp, err := c.UploadImage(api.UploadImageRequest{
			FOV:        api.FOVFromGeo(recs[i].FOV),
			Pixels:     api.EncodePixels(recs[i].Image),
			CapturedAt: recs[i].CapturedAt,
			Keywords:   recs[i].Keywords,
		})
		return resp.ID, err
	}

	// One synchronous upload proves the path works before shutdown races in.
	firstID, err := upload(0)
	if err != nil || firstID == 0 {
		t.Fatalf("baseline upload = (%d, %v)", firstID, err)
	}

	// Fire the rest concurrently and cancel while they are in flight.
	var (
		mu    sync.Mutex
		acked []uint64
	)
	var wg sync.WaitGroup
	for i := 1; i < len(recs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if id, err := upload(i); err == nil && id != 0 {
				mu.Lock()
				acked = append(acked, id)
				mu.Unlock()
			}
			// Uploads cut off by the closing listener simply don't count as
			// acknowledged; the durability assertion below only covers acks.
		}(i)
	}
	cancel()
	wg.Wait()
	if err := waitServe(t, done); err != nil {
		t.Fatalf("Serve = %v, want nil (in-flight requests must drain within grace)", err)
	}

	// The cmd/tvdp-server epilogue: snapshot so the next open replays
	// nothing, then close (quiescing the group-commit committer).
	if err := p.Store.Snapshot(); err != nil {
		t.Fatalf("post-drain snapshot: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("post-drain close: %v", err)
	}

	p2 := openPlatform(t, dir)
	want := append([]uint64{firstID}, acked...)
	for _, id := range want {
		if _, err := p2.Store.GetImage(id); err != nil {
			t.Errorf("acknowledged image %d lost across shutdown+reopen: %v", id, err)
		}
	}
	if n := p2.Store.NumImages(); n < len(want) {
		t.Errorf("reopened store has %d images, want at least %d", n, len(want))
	}
	// The reopened platform still answers queries.
	if _, _, err := p2.Query.Run(context.Background(), query.Query{Textual: &query.TextualClause{Terms: recs[0].Keywords}}); err != nil {
		t.Errorf("post-reopen query: %v", err)
	}
}
