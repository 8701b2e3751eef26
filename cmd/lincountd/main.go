// Command lincountd is the resident query server: it loads a Datalog
// program and a fact database once, then serves queries and fact writes
// over HTTP/JSON until told to stop.
//
// Usage:
//
//	lincountd -program sg.dl -facts data.dl -addr 127.0.0.1:7090
//
// Endpoints (all on the one listener):
//
//	POST   /v1/query         {"query":"?- sg(a,Y)."}            evaluate
//	POST   /v1/write         {"assert":"up(a,b).","retract":""}  mutate (atomic)
//	GET    /v1/stats         lifecycle state, epoch, admission gauges
//	GET    /v1/queries       in-flight queries  DELETE /v1/queries/{id}  cancel one
//	GET    /v1/debug/slowlog slow-query log (see -slow-query)
//	GET    /healthz          liveness          GET /readyz   readiness
//	GET    /metrics          Prometheus text   /debug/pprof/ profiler
//
// Every request gets an X-Request-Id (the inbound one is honoured when
// sane), echoed on responses and error bodies and stamped on the
// server's structured log lines (-log-format, -log-level). Requests
// slower than -slow-query land in the slow-query log with their planner
// ranking and per-rule profiles.
//
// Reads run against immutable snapshots (MVCC); writes batch through a
// single writer that publishes a new epoch atomically, so a query never
// observes a half-applied write. SIGTERM/SIGINT triggers a graceful
// drain: readiness flips, in-flight requests finish (or are canceled at
// -drain-timeout), and the process exits 0 on a clean drain.
//
// With -data-dir the server is durable: every write batch is appended
// to a write-ahead log (fsynced per -fsync) before it becomes visible,
// checkpoints (POST /v1/checkpoint, SIGUSR1, or the -checkpoint-*
// thresholds) bound replay time, and a restart over the same directory
// recovers every acknowledged write — including after SIGKILL. When a
// checkpoint exists, -facts is skipped (the checkpoint already contains
// that data; reloading it would resurrect retracted facts).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lincount"
	"lincount/internal/faultinject"
	"lincount/internal/obsv"
	"lincount/internal/server"
	"lincount/internal/wal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the daemon; factored out of main so tests can drive it
// in-process. ctx carries the shutdown signal: when it fires, the server
// drains gracefully and run returns.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lincountd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		programPath  = fs.String("program", "", "path to the Datalog program (required)")
		factsPath    = fs.String("facts", "", "comma-separated fact files (.dl text or .lcdb snapshots)")
		addr         = fs.String("addr", "127.0.0.1:7090", "listen address (use :0 for an ephemeral port)")
		maxConc      = fs.Int("max-concurrent", 16, "max concurrently evaluating requests")
		maxQueue     = fs.Int("max-queue", 64, "max requests waiting for a slot before shedding")
		timeout      = fs.Duration("timeout", 10*time.Second, "default per-request deadline")
		maxTimeout   = fs.Duration("max-timeout", 60*time.Second, "upper bound on requested deadlines")
		maxFacts     = fs.Int("max-facts", 10_000_000, "per-request derived-fact budget (-1 = unlimited)")
		drainTimeout = fs.Duration("drain-timeout", 15*time.Second, "grace period for in-flight requests at shutdown")
		faultSpec    = fs.String("faults", "", "fault-injection schedule for the write path, e.g. 'server.publish=err@3' (chaos testing)")
		faultSeed    = fs.Int64("fault-seed", 1, "seed for probabilistic fault-injection rules")
		evalFaults   = fs.String("eval-faults", "", "fault-injection schedule applied to every evaluation (chaos testing)")
		dataDir      = fs.String("data-dir", "", "directory for the write-ahead log and checkpoints (empty = in-memory only)")
		fsyncPolicy  = fs.String("fsync", "always", "WAL fsync policy: always, interval, never")
		fsyncEvery   = fs.Duration("fsync-interval", 50*time.Millisecond, "max fsync lag under -fsync=interval")
		ckptBytes    = fs.Int64("checkpoint-bytes", 8<<20, "checkpoint when the live WAL segment exceeds this size (-1 disables)")
		ckptRecords  = fs.Int("checkpoint-records", 4096, "checkpoint when the live WAL segment exceeds this many records (-1 disables)")
		logFormat    = fs.String("log-format", "json", "structured-log format: json or text")
		logLevel     = fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
		slowQuery    = fs.Duration("slow-query", 250*time.Millisecond, "capture queries slower than this in the slow-query log (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "lincountd:", err)
		return 1
	}

	if *programPath == "" {
		fmt.Fprintln(stderr, "lincountd: -program is required")
		fs.Usage()
		return 2
	}
	if *logFormat != "json" && *logFormat != "text" {
		return fail(fmt.Errorf("-log-format: unknown format %q (want json or text)", *logFormat))
	}
	level, err := parseLevel(*logLevel)
	if err != nil {
		return fail(fmt.Errorf("-log-level: %w", err))
	}
	src, err := os.ReadFile(*programPath)
	if err != nil {
		return fail(err)
	}
	p, err := lincount.ParseProgram(string(src))
	if err != nil {
		return fail(fmt.Errorf("parsing %s: %w", *programPath, err))
	}
	db := lincount.NewDatabase(p)
	if *factsPath != "" && *dataDir != "" {
		// A checkpointed data directory already contains the fact state
		// (including the effects of later retractions); loading -facts on
		// top would resurrect retracted facts.
		if m, err := wal.ReadManifest(*dataDir); err != nil {
			return fail(err)
		} else if m != nil {
			fmt.Fprintf(stderr, "lincountd: warning: ignoring -facts %s: %s has a checkpoint (epoch %d) that supersedes it\n",
				*factsPath, *dataDir, m.Seq)
			*factsPath = ""
		}
	}
	if *factsPath != "" {
		for _, path := range strings.Split(*factsPath, ",") {
			if strings.HasSuffix(path, ".lcdb") {
				f, err := os.Open(path)
				if err != nil {
					return fail(err)
				}
				err = db.LoadSnapshot(f)
				f.Close()
				if err != nil {
					return fail(fmt.Errorf("loading snapshot %s: %w", path, err))
				}
				continue
			}
			facts, err := os.ReadFile(path)
			if err != nil {
				return fail(err)
			}
			if err := db.LoadFacts(string(facts)); err != nil {
				return fail(fmt.Errorf("loading %s: %w", path, err))
			}
		}
	}

	cfg := server.Config{
		Program:        p,
		DB:             db,
		MaxConcurrent:  *maxConc,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxDerivedFacts: func() int {
			if *maxFacts < 0 {
				return -1
			}
			return *maxFacts
		}(),
		SlowQuery: *slowQuery,
		Log:       obsv.NewLogger(stderr, *logFormat, level),
	}
	if *dataDir != "" {
		sync, err := wal.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			return fail(fmt.Errorf("-fsync: %w", err))
		}
		cfg.DataDir = *dataDir
		cfg.WALSync = sync
		cfg.WALSyncInterval = *fsyncEvery
		cfg.CheckpointBytes = *ckptBytes
		cfg.CheckpointRecords = *ckptRecords
	}
	if *faultSpec != "" {
		inj, err := faultinject.ParseSpec(*faultSeed, *faultSpec)
		if err != nil {
			return fail(fmt.Errorf("-faults: %w", err))
		}
		cfg.Inject = inj
	}
	if *evalFaults != "" {
		cfg.EvalOptions = append(cfg.EvalOptions,
			lincount.WithFaultInjection(*faultSeed, *evalFaults))
	}

	s, err := server.New(cfg)
	if err != nil {
		return fail(err)
	}
	if s.Durable() {
		info := s.Recovery()
		if info.Records > 0 || info.CheckpointSeq > 0 {
			fmt.Fprintf(stderr, "lincountd: recovered %s: checkpoint epoch %d + %d replayed records -> epoch %d\n",
				*dataDir, info.CheckpointSeq, info.Records, info.Epoch)
		}
		if info.TruncatedBytes > 0 {
			fmt.Fprintf(stderr, "lincountd: dropped a %d-byte torn tail (unacknowledged crash residue)\n",
				info.TruncatedBytes)
		}
		// SIGUSR1 triggers a checkpoint, the classic operational lever for
		// "compact now, before I snapshot the disk".
		usr1 := make(chan os.Signal, 1)
		signal.Notify(usr1, syscall.SIGUSR1)
		defer signal.Stop(usr1)
		go func() {
			for {
				select {
				case <-usr1:
					if res, err := s.Checkpoint(context.Background()); err != nil {
						fmt.Fprintln(stderr, "lincountd: checkpoint:", err)
					} else if res.Skipped {
						fmt.Fprintf(stderr, "lincountd: checkpoint skipped (epoch %d already checkpointed)\n", res.Epoch)
					} else {
						fmt.Fprintf(stderr, "lincountd: checkpointed epoch %d -> %s\n", res.Epoch, res.Snapshot)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = s.Close()
		return fail(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	// The banner goes to stderr so scripts can scrape the bound address
	// (":0" resolves here) the same way the -obs CLIs announce theirs.
	fmt.Fprintf(stderr, "lincountd: serving %s (%d facts) on http://%s/\n",
		*programPath, db.FactCount(), l.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		_ = s.Close()
		return fail(err)
	case <-ctx.Done():
	}

	fmt.Fprintln(stderr, "lincountd: draining...")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := s.Drain(dctx)
	_ = srv.Shutdown(dctx)
	<-errc // Serve returns ErrServerClosed once Shutdown completes
	if drainErr != nil {
		fmt.Fprintln(stderr, "lincountd:", drainErr)
		return 1
	}
	fmt.Fprintln(stderr, "lincountd: drained cleanly")
	return 0
}

// parseLevel reads a -log-level name.
func parseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}
