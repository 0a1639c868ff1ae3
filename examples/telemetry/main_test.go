package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestScrape runs the example on a free port for a bounded number of
// frames, scrapes /metrics once and checks that it reports both workers
// and every frame driven.
func TestScrape(t *testing.T) {
	const frames = 100
	svc, err := run(context.Background(), "127.0.0.1:0", frames)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	resp, err := http.Get("http://" + svc.TelemetryAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s, %v", resp.Status, err)
	}
	var packets int
	for _, line := range strings.Split(string(body), "\n") {
		var n int
		if _, err := fmt.Sscanf(line, `gigaflow_packets_total{worker=%q} %d`, new(string), &n); err == nil {
			packets += n
		}
	}
	if !strings.Contains(string(body), "\ngigaflow_workers 2\n") || packets != frames {
		t.Errorf("/metrics reads %d packets over its workers; want gigaflow_workers 2 and %d packets:\n%s", packets, frames, body)
	}
}
