package chaos_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/chaos"
	"repro/internal/serve/client"
)

// TestChaosBinarySwarm is the binary-protocol chaos gate (`make
// race-serve-v2`; also matched by `make race-chaos`): rogues speaking
// the v2 framing — garbage length prefixes, mid-frame disconnects,
// preamble negotiation abuse, handler-timeout overruns and injected
// panics — run against a limited daemon alongside a mixed JSON/binary
// population of well-behaved clients. The daemon must stay live for
// both codecs and its health counters must reconcile with the injected
// schedule.
func TestChaosBinarySwarm(t *testing.T) {
	srv, sock := startServer(t, serve.Options{
		MaxConns:       64,
		MaxInFlight:    4,
		ReadTimeout:    150 * time.Millisecond,
		WriteTimeout:   2 * time.Second,
		HandlerTimeout: 60 * time.Millisecond,
		EnableTestOps:  true,
	})
	topo, err := srv.LoadTopology(serve.TopoParams{Topo: "small", K: 4})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(bg, 30*time.Second)
	defer cancel()
	garbage := &chaos.GarbageFlood{Frames: 15, Seed: 21, Binary: true}
	negotiation := &chaos.NegotiationAbuser{Rounds: 3}
	rogues := []chaos.Rogue{
		garbage,
		&chaos.MidFrameDisconnect{Conns: 4, Seed: 22, Binary: true},
		negotiation,
		&chaos.DeadlineExceeder{Requests: 3, SleepMS: 250, Binary: true},
		&chaos.CrashInjector{Crashes: 2, Binary: true},
	}
	rep := chaos.RunSwarm(ctx, chaos.SwarmConfig{
		Network: "unix", Addr: sock,
		Rogues:            rogues,
		GoodClients:       2,
		BinaryGoodClients: 2,
		GoodRequests:      30,
		TopoKey:           topo.Key,
		Switches:          topo.Switches,
		Seed:              2,
		Retry: client.RetryPolicy{
			MaxAttempts: 12, BaseDelay: 5 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 9,
		},
	})
	for _, e := range rep.RogueErrors {
		t.Errorf("rogue: %s", e)
	}
	for _, e := range rep.GoodErrors {
		t.Errorf("good client: %s", e)
	}
	if want := int64(4 * 30); rep.GoodResponses != want {
		t.Errorf("good responses %d, want %d", rep.GoodResponses, want)
	}

	// Every hostile frame drew an error response, every malformed
	// preamble a rejection.
	if garbage.ErrorFrames != 15 {
		t.Errorf("binary garbage flood drew %d error frames of 15", garbage.ErrorFrames)
	}
	if negotiation.Rejections != 2*3 {
		t.Errorf("negotiation abuser drew %d rejections of %d", negotiation.Rejections, 2*3)
	}

	// The daemon is still ready over BOTH codecs, and the resilience
	// counters reconcile with the schedule.
	cb, err := client.DialBinary(bg, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	h, err := cb.Health(bg)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Ready {
		t.Errorf("daemon not ready after the swarm: %+v", h)
	}
	if msg := chaos.Reconcile(h, rogues); msg != "" {
		t.Errorf("reconcile: %s", msg)
	}
	if msg := chaos.ExactPanics(h, rogues); msg != "" {
		t.Errorf("reconcile: %s", msg)
	}
	cj, err := client.Dial(bg, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cj.Close()
	if h, err := cj.Health(bg); err != nil || !h.Ready {
		t.Fatalf("JSON codec unhealthy after binary chaos: %+v, %v", h, err)
	}
}
