package rocketeer

import (
	"errors"
	"net"
	"testing"
	"time"

	"godiva/internal/genx"
	"godiva/internal/mesh"
	"godiva/internal/push"
	"godiva/internal/remote"
)

// TestFollowRendersStreamedSteps runs the whole live pipeline in-process:
// an ingest server starts empty, a producer streams a small dataset into it,
// and a follower subscribes and renders every step as it completes.
func TestFollowRendersStreamedSteps(t *testing.T) {
	srv, err := remote.Serve(remote.ServerOptions{
		Dir:       t.TempDir(),
		Ingest:    true,
		Heartbeat: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	spec := genx.Spec{
		Mesh: mesh.AnnulusSpec{
			NR: 2, NTheta: 10, NZ: 6,
			RInner: 0.6, ROuter: 1.55, Length: 6,
		},
		Blocks:           4,
		Snapshots:        3,
		FilesPerSnapshot: 2,
		DT:               2.5e-5,
	}

	producer := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer producer.Close()
	prodErr := make(chan error, 1)
	go func() {
		// Events only reach subscribers registered before Publish: wait for
		// the follower's subscription to land before streaming, or a fast
		// producer finishes into an empty room and Follow waits forever.
		for srv.Stats().Subscriptions == 0 {
			time.Sleep(5 * time.Millisecond)
		}
		prodErr <- genx.StreamDataset(spec, func(step, file int, blocks []*genx.BlockData) error {
			return producer.Ingest(genx.SnapshotFile("", step, file), &remote.FilePayload{
				Time:   blocks[0].Time,
				StepID: blocks[0].StepID,
				Blocks: blocks,
			})
		})
	}()

	follower := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer follower.Close()
	vt, _ := TestByName("simple")
	res, err := Follow(FollowConfig{
		Test:     vt,
		Client:   follower,
		Policy:   push.Block, // lossless: the test wants every step
		MaxSteps: spec.Snapshots,
		ImageDir: "", // rendering without encoding keeps the test fast
	})
	if err != nil {
		t.Fatalf("Follow: %v", err)
	}
	if err := <-prodErr; err != nil {
		t.Fatalf("producer: %v", err)
	}

	if res.Steps != spec.Snapshots {
		t.Errorf("rendered %d steps, want %d", res.Steps, spec.Snapshots)
	}
	if res.Events != spec.Snapshots*spec.FilesPerSnapshot {
		t.Errorf("received %d events, want %d", res.Events, spec.Snapshots*spec.FilesPerSnapshot)
	}
	if res.Skipped != 0 {
		t.Errorf("lossless follow skipped %d steps", res.Skipped)
	}
	wantImages := spec.Snapshots * len(vt.Ops)
	if res.Images != wantImages {
		t.Errorf("rendered %d images, want %d", res.Images, wantImages)
	}
	if res.DB.UnitsRead != int64(spec.Snapshots*spec.FilesPerSnapshot) {
		t.Errorf("read %d units, want %d", res.DB.UnitsRead, spec.Snapshots*spec.FilesPerSnapshot)
	}
}

// A follow of a server that is not there fails to subscribe and says so.
func TestFollowServerUnreachable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	follower := remote.NewClient(remote.ClientOptions{Addr: addr})
	defer follower.Close()
	vt, _ := TestByName("simple")
	if res, err := Follow(FollowConfig{Test: vt, Client: follower, Policy: push.Block}); err == nil {
		t.Fatalf("Follow of %s = %+v, nil; want the failed subscribe", addr, res)
	}
}

// A follow whose stream is lost before any event reports the loss: the
// server closes once the subscription lands, and Follow must return an
// error matching remote.ErrSubscriptionLost, not an empty success.
func TestFollowLostBeforeAnyEvent(t *testing.T) {
	srv, err := remote.Serve(remote.ServerOptions{
		Dir:       t.TempDir(),
		Ingest:    true,
		Heartbeat: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() {
		for srv.Stats().Subscriptions == 0 {
			time.Sleep(5 * time.Millisecond)
		}
		closed <- srv.Close()
	}()

	follower := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer follower.Close()
	vt, _ := TestByName("simple")
	_, err = Follow(FollowConfig{Test: vt, Client: follower, Policy: push.Block})
	if !errors.Is(err, remote.ErrSubscriptionLost) {
		t.Fatalf("Follow = %v, want ErrSubscriptionLost", err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}
