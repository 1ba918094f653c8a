class A {
    int f(int[] xs) {
        int total = 5;
        int k = 1; total = 0;
        total += xs.length;
        return total + k;
    }

    int g(int[] xs) {
        int total = 2;
        total = total * 2;
        total = 0;
        total += xs.length;
        return total;
    }

    int h(int[] xs) {
        int total = 3; total = 0; total += xs.length; return total * 2;
    }
}
