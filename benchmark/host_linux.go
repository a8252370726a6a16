package main

import (
	"bytes"
	"fmt"
	"os"
	"syscall"
)

// readHostCounters reads the guest's stolen CPU time (/proc/stat, in ticks
// of 1/100 s) and the process's own I/O counts (/proc/self/io).
func readHostCounters() hostCounters {
	var h hostCounters
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		var user, nice, system, idle, iowait, irq, softirq, steal float64
		fmt.Sscanf(string(data), "cpu %f %f %f %f %f %f %f %f", &user, &nice, &system, &idle, &iowait, &irq, &softirq, &steal) //nolint:errcheck // a short line leaves steal 0
		h.steal = steal / 100
	}
	if data, err := os.ReadFile("/proc/self/io"); err == nil {
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			var name string
			var v float64
			if n, _ := fmt.Sscanf(string(line), "%s %f", &name, &v); n != 2 {
				continue
			}
			switch name {
			case "wchar:":
				h.writeBytes = v
			case "syscr:", "syscw:":
				h.rwCalls += v
			}
		}
	}
	return h
}

// fsType names the filesystem dir is on, so a reader can tell a device's
// fsync from tmpfs's.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return "other"
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}
