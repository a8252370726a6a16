//go:build !linux

package main

func readHostCounters() hostCounters { return hostCounters{} }

func fsType(string) string { return "unknown" }

func kernelRelease() string { return "unknown" }
