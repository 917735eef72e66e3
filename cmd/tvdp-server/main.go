// Command tvdp-server runs the TVDP REST platform (paper §V).
//
// Usage:
//
//	tvdp-server -addr :8080 -dir ./data          # durable store
//	tvdp-server -addr :8080 -demo 200            # seed a demo corpus,
//	                                             # print a ready API key
//	tvdp-server -addr :8080 -pprof :6060         # profiling side listener
//
// Lifecycle: SIGINT/SIGTERM triggers a graceful shutdown — the listener
// stops accepting, in-flight requests drain for up to -shutdown-grace,
// the group-commit committer quiesces, and the store flushes its memtable
// to a segment and closes so the next open replays nothing. A clean
// shutdown exits 0.
//
// With -pprof, net/http/pprof is served on its own listener (never the
// API address), so serving-path contention is inspectable live:
//
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// The demo mode ingests a labelled synthetic street-scene corpus, trains
// a cleanliness model over colour features, and prints a bootstrap API
// key so `curl` works immediately.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	tvdp "repro"
	"repro/internal/analysis"
	"repro/internal/feature"
	"repro/internal/store"
	"repro/internal/synth"
)

func main() {
	logger := log.New(os.Stderr, "tvdp ", log.LstdFlags)
	if err := run(logger); err != nil {
		logger.Printf("fatal: %v", err)
		os.Exit(1)
	}
}

// run owns the whole process lifecycle so that every exit path — flag
// errors, seed failures, server faults, signals — releases the platform
// (WAL close, committer quiesce) before the process ends. log.Fatalf is
// banned here: it would skip the deferred Close and leave the next open
// to replay the WAL.
func run(logger *log.Logger) error {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		dir        = flag.String("dir", "", "durability directory (empty = in-memory)")
		shards     = flag.Int("shards", 1, "partition the corpus across N store shards (1 = single store)")
		walSync    = flag.String("wal-sync", "batch", "WAL durability: batch (one write per group-commit), immediate (fsync per batch), none (in-memory buffer)")
		flushThr   = flag.Int64("flush-threshold", 0, "flush the memtable to a segment after this many WAL bytes (0 = default 8 MiB)")
		demo       = flag.Int("demo", 0, "seed N labelled synthetic images and train a demo model")
		seed       = flag.Int64("seed", 1, "demo corpus seed")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. :6060); empty disables")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request deadline budget")
		grace      = flag.Duration("shutdown-grace", 10*time.Second, "in-flight drain budget after SIGINT/SIGTERM")
		rateLimit  = flag.Float64("rate-limit", 0, "admitted requests/sec per client before shedding 429s (0 disables)")
		rateBurst  = flag.Int("rate-burst", 0, "admission bucket capacity (0 derives from -rate-limit)")
		ingWork    = flag.Int("ingest-workers", 0, "streaming-ingest pipeline partitions (0 = default)")
		ingQueue   = flag.Int("ingest-queue", 0, "per-partition ingest queue depth before uploads shed 429s (0 = default)")
	)
	flag.Parse()

	// ctx is the process lifecycle: cancelled on the first SIGINT/SIGTERM.
	// A second signal kills the process the default way (stop() restores
	// default handling once ctx is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		// The pprof import registers its handlers on http.DefaultServeMux;
		// serving that mux on a separate listener keeps the profiling
		// surface off the API address. ReadHeaderTimeout keeps the side
		// listener Slowloris-proof.
		side := &http.Server{
			Addr:              *pprofAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Printf("pprof listening on %s", *pprofAddr)
			if err := side.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Printf("pprof listener: %v", err)
			}
		}()
		defer side.Close()
	}

	syncMode, err := store.ParseWALSyncMode(*walSync)
	if err != nil {
		return err
	}
	p, err := tvdp.Open(tvdp.Config{
		Dir:            *dir,
		ShardCount:     *shards,
		WALSync:        syncMode,
		FlushThreshold: *flushThr,
		IngestWorkers:  *ingWork,
		IngestQueue:    *ingQueue,
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := p.Close(); err != nil {
			logger.Printf("closing platform: %v", err)
		}
	}()

	if *demo > 0 {
		if err := seedDemo(ctx, p, *demo, *seed, logger); err != nil {
			return err
		}
	}

	st := p.Stats()
	logger.Printf("platform ready: %d images, %d classifications, %d models, features %v",
		st.Images, st.Classifications, st.Models, st.FeatureKinds)
	logger.Printf("listening on %s", *addr)
	err = p.Serve(ctx, tvdp.ServeConfig{
		Addr:           *addr,
		Logger:         logger,
		RequestTimeout: *reqTimeout,
		ShutdownGrace:  *grace,
		RateLimit:      *rateLimit,
		RateBurst:      *rateBurst,
	})
	if err != nil {
		return err
	}
	// Clean drain: flush the memtable now so the next open is
	// replay-free, then let the deferred Close quiesce the committer and
	// close the WAL.
	logger.Printf("drained; flushing store")
	if err := p.Store.Snapshot(); err != nil {
		return err
	}
	logger.Printf("shutdown complete")
	return nil
}

func seedDemo(ctx context.Context, p *tvdp.Platform, n int, seed int64, logger *log.Logger) error {
	if _, err := p.CreateClassification("street_cleanliness", synth.ClassNames[:]); err != nil {
		return err
	}
	g, err := synth.NewGenerator(synth.DefaultConfig(n, seed))
	if err != nil {
		return err
	}
	for _, rec := range g.Generate(n) {
		id, err := p.IngestRecord(ctx, rec)
		if err != nil {
			return err
		}
		if err := p.AnnotateHuman(id, "street_cleanliness", int(rec.Class), rec.CapturedAt); err != nil {
			return err
		}
	}
	spec, err := p.TrainModel(ctx, analysis.TrainConfig{
		Name:           "cleanliness-demo",
		Classification: "street_cleanliness",
		FeatureKind:    string(feature.KindColorHist),
		HoldoutFrac:    0.2,
		Owner:          "demo",
		Seed:           seed,
	})
	if err != nil {
		return err
	}
	logger.Printf("demo model %q trained on %d images (validation F1 %.3f)", spec.Name, spec.TrainedOn, spec.MacroF1)

	uid, err := p.Store.CreateUser("demo", "government")
	if err != nil {
		return err
	}
	key, err := p.Store.IssueAPIKey(uid, time.Now())
	if err != nil {
		return err
	}
	logger.Printf("demo API key: %s", key)
	logger.Printf(`try: curl -H "X-API-Key: %s" localhost%s/api/v1/classifications`, key, flag.Lookup("addr").Value)
	return nil
}
