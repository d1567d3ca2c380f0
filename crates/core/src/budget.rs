//! Host-core count for sizing worker pools: the DSE evaluator's thread
//! count defaults to one worker per core.

/// Host CPUs available to this process (`1` when detection fails —
/// sandboxes and exotic platforms degrade to serial, never to a panic).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cores_is_positive() {
        assert!(host_cores() >= 1);
    }
}
