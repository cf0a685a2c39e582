//! Splitting a byte stream ("the file") into fixed-length source packets and
//! reassembling it, as every bulk-data application in the paper does before
//! encoding.
//!
//! The paper's benchmarks use 1 KB packets; its prototype uses 500 B payloads.
//! Both are just parameters here.  The original length is carried alongside
//! the packets so that the padding added to the last packet can be stripped on
//! reassembly (in the real protocol the length travels on the control channel,
//! see `df-proto`).

use crate::error::{Result, TornadoError};

/// A file split into equal-length source packets, ready for encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketizedFile {
    /// The source packets, each exactly `packet_size` bytes (the last one is
    /// zero-padded).
    packets: Vec<Vec<u8>>,
    /// Original file length in bytes, before padding.
    file_len: usize,
    /// Packet payload size in bytes.
    packet_size: usize,
}

impl PacketizedFile {
    /// Split `data` into packets of `packet_size` bytes, zero-padding the
    /// final packet.
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::InvalidParameters`] if `packet_size == 0` or
    /// `data` is empty (an empty file has no source packets to protect).
    pub fn split(data: &[u8], packet_size: usize) -> Result<Self> {
        if packet_size == 0 {
            return Err(TornadoError::InvalidParameters {
                reason: "packet size must be positive".to_string(),
            });
        }
        if data.is_empty() {
            return Err(TornadoError::InvalidParameters {
                reason: "cannot packetize an empty file".to_string(),
            });
        }
        let mut packets = Vec::with_capacity(data.len().div_ceil(packet_size));
        for chunk in data.chunks(packet_size) {
            let mut pkt = chunk.to_vec();
            pkt.resize(packet_size, 0);
            packets.push(pkt);
        }
        Ok(PacketizedFile {
            packets,
            file_len: data.len(),
            packet_size,
        })
    }

    /// Wrap already-packetized data (all packets must share one length).
    ///
    /// `file_len` is the logical file length; it must fit inside the packets.
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::MalformedInput`] on inconsistent packet lengths
    /// or a `file_len` that does not fit.
    pub fn from_packets(packets: Vec<Vec<u8>>, file_len: usize) -> Result<Self> {
        let packet_size = packets.first().map(|p| p.len()).unwrap_or(0);
        if packet_size == 0 || packets.iter().any(|p| p.len() != packet_size) {
            return Err(TornadoError::MalformedInput {
                reason: "packets must be non-empty and of equal length".to_string(),
            });
        }
        let capacity = packets.len() * packet_size;
        if file_len > capacity || file_len + packet_size <= capacity {
            return Err(TornadoError::MalformedInput {
                reason: format!(
                    "file length {file_len} inconsistent with {} packets of {packet_size} bytes",
                    packets.len()
                ),
            });
        }
        Ok(PacketizedFile {
            packets,
            file_len,
            packet_size,
        })
    }

    /// Number of source packets `k`.
    pub fn num_packets(&self) -> usize {
        self.packets.len()
    }

    /// Packet payload size in bytes.
    pub fn packet_size(&self) -> usize {
        self.packet_size
    }

    /// Original (unpadded) file length in bytes.
    pub fn file_len(&self) -> usize {
        self.file_len
    }

    /// Borrow the source packets.
    pub fn packets(&self) -> &[Vec<u8>] {
        &self.packets
    }

    /// Reassemble the original byte stream, stripping the final packet's
    /// padding.
    pub fn reassemble(&self) -> Vec<u8> {
        reassemble_file(&self.packets, self.file_len)
    }
}

/// Reassemble a file from decoded source packets and the original length.
///
/// For receivers that obtained the packets from a decoder and the length from
/// the control channel.  Takes anything that yields byte slices, so packets
/// borrowed from a decoder are written once, straight into the file.
pub fn reassemble_file<I>(packets: I, file_len: usize) -> Vec<u8>
where
    I: IntoIterator,
    I::Item: AsRef<[u8]>,
{
    let mut out = Vec::with_capacity(file_len);
    for pkt in packets {
        let pkt = pkt.as_ref();
        out.extend_from_slice(&pkt[..pkt.len().min(file_len - out.len())]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_pads_last_packet() {
        let data: Vec<u8> = (0..10u8).collect();
        let f = PacketizedFile::split(&data, 4).unwrap();
        assert_eq!(f.num_packets(), 3);
        assert_eq!(f.packets()[2], vec![8, 9, 0, 0]);
        assert_eq!(f.file_len(), 10);
        assert_eq!(f.reassemble(), data);
    }

    #[test]
    fn exact_multiple_has_no_padding() {
        let data = vec![7u8; 16];
        let f = PacketizedFile::split(&data, 4).unwrap();
        assert_eq!(f.num_packets(), 4);
        assert_eq!(f.reassemble(), data);
    }

    #[test]
    fn empty_file_rejected() {
        assert!(PacketizedFile::split(&[], 4).is_err());
        assert!(PacketizedFile::split(&[1, 2, 3], 0).is_err());
    }

    #[test]
    fn from_packets_validates_consistency() {
        let pkts = vec![vec![1u8; 4], vec![2u8; 4]];
        assert!(PacketizedFile::from_packets(pkts.clone(), 7).is_ok());
        assert!(PacketizedFile::from_packets(pkts.clone(), 9).is_err());
        assert!(PacketizedFile::from_packets(pkts.clone(), 3).is_err());
        let uneven = vec![vec![1u8; 4], vec![2u8; 3]];
        assert!(PacketizedFile::from_packets(uneven, 7).is_err());
    }

    #[test]
    fn reassemble_file_truncates_padding() {
        let packets = vec![vec![1u8, 2, 3, 4], vec![5u8, 0, 0, 0]];
        assert_eq!(reassemble_file(&packets, 5), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn single_byte_file() {
        let f = PacketizedFile::split(&[42u8], 512).unwrap();
        assert_eq!(f.num_packets(), 1);
        assert_eq!(f.reassemble(), vec![42u8]);
    }
}
