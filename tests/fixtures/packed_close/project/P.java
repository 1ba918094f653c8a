class P {
    int m0(int[] xs) {
        int total = 5;
        total = 0;
        total += xs.length;
        return total;
    } int m1(int[] xs) {
        int total = 6;
        total = 0; total += xs.length;
        return total * 2;
    }
}
