//! The four workloads: what each downloads, through which layers, and why.

use crate::rng::{mix, SplitMix64};

/// The route a population's datagrams take from server session to client
/// session.  A workload is measured end to end on one of them; a traced run
/// also sends the same population down the others, to cost each layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `ServerSession::poll_transmit` → loss drawn by the benchmark →
    /// `ClientSession::handle_datagram`: sessions and codec only.
    Direct,
    /// The benchmark's own single-threaded loop over `SimMulticast`
    /// endpoints: adds the in-memory transport.
    SimPump,
    /// A stepped one-shard `Driver` over `SimMulticast`: adds the driver.
    SimDriver,
    /// The benchmark's own loop over UDP loopback sockets.
    UdpPump,
    /// A paced one-shard `Driver` over UDP loopback sockets.
    UdpDriver,
}

impl Path {
    pub fn name(self) -> &'static str {
        match self {
            Path::Direct => "direct",
            Path::SimPump => "sim_pump",
            Path::SimDriver => "sim_driver",
            Path::UdpPump => "udp_pump",
            Path::UdpDriver => "udp_driver",
        }
    }

    pub fn is_udp(self) -> bool {
        matches!(self, Path::UdpPump | Path::UdpDriver)
    }
}

/// One workload: a population of downloads and the path it is measured on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Files served, each as its own session on its own group.
    pub sessions: usize,
    /// Receivers downloading each file.
    pub receivers_per_session: usize,
    pub file_len: usize,
    /// Payload bytes per datagram.
    pub payload: usize,
    /// Raptor symbol stream when true, Tornado A flat carousel when false.
    pub rateless: bool,
    /// Multicast groups per session.  A receiver of a flat carousel listens
    /// to all of them; what the count changes is the order of emission (the
    /// reverse-binary schedule strides through the encoding in blocks of
    /// `2^(layers-1)`, where one layer emits it front to back).
    pub layers: usize,
    pub path: Path,
    /// Loss probability of every receiver, drawn by the benchmark on the
    /// direct path and by the simulated channel on the `Sim` paths.
    pub loss: f64,
}

impl Spec {
    /// Source packets per file.
    pub fn k(&self) -> usize {
        self.file_len.div_ceil(self.payload)
    }

    pub fn receivers(&self) -> usize {
        self.sessions * self.receivers_per_session
    }

    /// The same files with one lossless receiver each: what a UDP loopback
    /// path can carry, where two receivers of one group would need one port.
    pub fn one_receiver_per_session(&self) -> Spec {
        Spec {
            receivers_per_session: 1,
            loss: 0.0,
            ..*self
        }
    }

    /// The input files, from the run's seed alone.
    pub fn generate_files(&self, seed: u64) -> Vec<Vec<u8>> {
        (0..self.sessions)
            .map(|s| {
                let mut file = vec![0u8; self.file_len];
                SplitMix64::new(mix(seed, 0xf11e + s as u64)).fill(&mut file);
                file
            })
            .collect()
    }
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "carousel_bulk",
        why: "4 MiB Tornado A carousel to one receiver by the direct pump: gf and core do nearly all the work on a working set six times the L2 cache, no driver or socket",
        sessions: 1,
        receivers_per_session: 1,
        // The issue's 16 MiB is bound by DRAM, and on the shared reference
        // host its run-to-run median moved 17 % within minutes and 22 % within
        // hours, where 4 MiB moves 4 %; see README, "Noise floor".
        file_len: 4 << 20,
        payload: 1024,
        rateless: false,
        // Four groups, all listened to: the reverse-binary schedule strides
        // through the encoding, so the receiver decodes from half of every
        // cascade level and finishes by 1.5 k receptions whatever the graph.
        // Front to back (one layer) a receiver behind loss stalls for good at
        // the client's buffer cap in 13 to 23 % of downloads; see README.
        layers: 4,
        path: Path::Direct,
        loss: 0.0,
    },
    Spec {
        name: "rateless_stream",
        why: "4 MiB Raptor stream to one receiver by the direct pump: the codec layer used on demand, so a peeler change that helps one code family and costs the other shows",
        sessions: 1,
        receivers_per_session: 1,
        file_len: 4 << 20,
        payload: 1024,
        rateless: true,
        layers: 1,
        path: Path::Direct,
        loss: 0.10,
    },
    Spec {
        name: "swarm_small",
        why: "256 receivers of a 64 KiB file in 128-byte datagrams through the stepped driver over SimMulticast: per-datagram framing, accounting and scheduling dominate, no XOR at all",
        sessions: 1,
        receivers_per_session: 256,
        file_len: 64 << 10,
        payload: 128,
        rateless: false,
        // One layer and no loss: the source packets arrive first and whole,
        // so the decode is a copy and every download completes.
        layers: 1,
        path: Path::SimDriver,
        loss: 0.0,
    },
    Spec {
        name: "udp_loopback",
        why: "32 sessions of 1 MiB to 32 receivers over UDP loopback sockets through the paced driver: the only workload with proto.udp, polling and the syscalls on the path",
        sessions: 32,
        receivers_per_session: 1,
        file_len: 1 << 20,
        payload: 1024,
        rateless: false,
        layers: 1,
        path: Path::UdpDriver,
        loss: 0.0,
    },
];

pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operating_points_match_the_definitions() {
        let k: Vec<usize> = WORKLOADS.iter().map(Spec::k).collect();
        assert_eq!(k, [4096, 4096, 512, 1024]);
        let receivers: Vec<usize> = WORKLOADS.iter().map(Spec::receivers).collect();
        assert_eq!(receivers, [1, 1, 256, 32]);
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn files_depend_on_the_seed_and_on_nothing_else() {
        let spec = Spec {
            file_len: 4096,
            sessions: 2,
            ..*by_name("udp_loopback").unwrap()
        };
        let a = spec.generate_files(11);
        assert_eq!(a, spec.generate_files(11));
        assert_ne!(a, spec.generate_files(12));
        assert_ne!(a[0], a[1], "sessions serve different files");
        assert_eq!(a[0].len(), 4096);
    }
}
